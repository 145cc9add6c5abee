package specwise

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"specwise/internal/paper"
)

// The pins below hold every entry point that runs a worst-case analysis
// outside the optimizer (mismatch analysis, rare-failure estimate,
// sign-off verification, Table 5, Fig. 5, the quadratic-model study) to
// a fixed result, bit for bit, so a change to the shared per-spec search
// in internal/wcd that moves any of them fails here. Floats are compared
// by their IEEE-754 bit patterns through an FNV-64a digest; a failure
// logs every value.

// bitsDigest hashes labelled float bit patterns in order (FNV-64a).
type bitsDigest struct{ lines []string }

func (b *bitsDigest) add(label string, vs ...float64) {
	line := label
	for _, v := range vs {
		line += fmt.Sprintf(" %016x", math.Float64bits(v))
	}
	b.lines = append(b.lines, line)
}

func (b *bitsDigest) sum() uint64 {
	h := fnv.New64a()
	for _, l := range b.lines {
		h.Write([]byte(l + "\n"))
	}
	return h.Sum64()
}

// checkDigest fails with every recorded line when the digest moved.
func checkDigest(t *testing.T, name string, b *bitsDigest, want uint64) {
	t.Helper()
	if got := b.sum(); got != want {
		t.Errorf("%s digest = %#x, want %#x; values:", name, got, want)
		for _, l := range b.lines {
			t.Log(l)
		}
	}
}

func TestMismatchAnalysisPinned(t *testing.T) {
	p := OTA()
	reports, err := AnalyzeMismatch(p, p.InitialDesign(), 11)
	if err != nil {
		t.Fatal(err)
	}
	var b bitsDigest
	for _, r := range reports {
		b.add("beta "+r.Spec, r.Beta)
		for _, pm := range r.Pairs {
			b.add(pm.ParamK+" "+pm.ParamL, pm.Value)
		}
	}
	checkDigest(t, "AnalyzeMismatch", &b, 0x1a8fefb1c213650e)
}

func TestRareFailurePinned(t *testing.T) {
	p := OTA()
	var b bitsDigest
	for _, spec := range []string{"Power", "CMRR"} {
		rf, err := EstimateRareFailure(p, p.InitialDesign(), spec, 300, 5)
		if err != nil {
			t.Fatal(err)
		}
		b.add(fmt.Sprintf("%s evals=%d", spec, rf.Evals), rf.Beta, rf.PFail, rf.StdErr)
	}
	checkDigest(t, "EstimateRareFailure", &b, 0xf7b5093cd7fe715)
}

func TestVerifyYieldPinned(t *testing.T) {
	p := OTA()
	mc, err := VerifyYield(p, p.InitialDesign(), 80, 5)
	if err != nil {
		t.Fatal(err)
	}
	var b bitsDigest
	b.add(fmt.Sprintf("pass=%d bad=%v evals=%d", mc.Estimate.Pass, mc.BadPerSpec, mc.Evals),
		mc.Estimate.Lo, mc.Estimate.Hi)
	for i := range mc.Moments {
		b.add("moments", mc.Moments[i].Mean(), mc.Moments[i].Sigma())
	}
	checkDigest(t, "VerifyYield", &b, 0xb5a5691a75361820)
}

func TestPaperTable5Fig5Pinned(t *testing.T) {
	entries, err := paper.Table5(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	var b bitsDigest
	for _, e := range entries {
		b.add(fmt.Sprintf("%d %s %s %s", e.Rank, e.Spec, e.ParamK, e.ParamL), e.Measure)
	}
	checkDigest(t, "Table5", &b, 0xecc02bcb98c33a0e)

	c, err := paper.Fig5(7, 400)
	if err != nil {
		t.Fatal(err)
	}
	b = bitsDigest{}
	b.add("x", c.X...)
	b.add("y", c.Y...)
	checkDigest(t, "Fig5", &b, 0xe21bc4c1017446cd)
}

func TestQuadStudyPinned(t *testing.T) {
	st, err := paper.RunQuadStudy(500, 20)
	if err != nil {
		t.Fatal(err)
	}
	var b bitsDigest
	b.add("yields", st.MCYield, st.LinearYield, st.MirrorYield, st.QuadYield)
	checkDigest(t, "QuadStudy", &b, 0x833ef1552b52d84f)
}
