// Package circuits provides the benchmark circuits of the paper's Sec. 6 —
// the folded-cascode and the Miller (two-stage) operational amplifiers —
// plus a small five-transistor OTA used by the quickstart example. Each
// circuit is exposed as a problem.Problem: a black-box performance evaluator
// f(d, ŝ, θ) over design parameters, normalized statistical parameters
// (global and Pelgrom local variations, Sec. 4) and operating parameters
// (temperature and supply), together with the functional sizing
// constraints c(d) ≥ 0 of Sec. 5.1.
//
// # Folded-cascode opamp (paper Fig. 7 counterpart)
//
// PMOS input pair folded into an NMOS cascode with a high-swing PMOS
// cascode mirror load; single-ended output, ideal-bias rails referenced
// to the supplies:
//
//	      vdd ──┬──────────┬─────────────┬─────
//	            │          │             │
//	         MT │       M7 ├─┐        M8 │  (PMOS mirror, gates at o1)
//	      tail ─┤        m1│ │         m2│
//	            │       M9 ├─┘ vbp    M10│  (PMOS cascodes)
//	   ┌────────┴───┐    o1│          out│──── CL
//	M1 ┤inp      inn├ M2   │             │
//	   │f1        f2│   M5 ├── vbn2   M6 │  (NMOS cascodes)
//	   │            │      │f1           │f2
//	M3 ├── vbn1 ────┤ M4   │             │  (NMOS sinks)
//	    gnd ────────┴──────┴─────────────┴─────
//
// Signal path: the input pair splits the tail current into the fold
// nodes f1/f2; the NMOS cascodes M5/M6 route the difference current to
// the mirror (M7/M9 diode side at o1) and the output. The testbench
// closes unity feedback from out into inn for biasing and breaks the
// loop in AC (spice.VCVSACFixed).
//
// Mismatch structure: CMRR is limited by the ΔVth matching of the
// current-sink pair M3/M4 and the Δβ matching of the input pair — the
// pairs the Table-5 analysis ranks first. (Input-pair ΔVth is absorbed
// as offset by the feedback testbench, mirroring how an offset-nulled
// measurement desensitizes CMRR to it.)
//
// # Miller (two-stage) opamp (paper Fig. 8 counterpart)
//
// NMOS input pair with PMOS mirror load, PMOS common-source second
// stage, RC-compensated:
//
//	vdd ──┬────────────┬──────────────┬─────
//	   M3 ├─┐ n1    M4 │           M6 │   (gate at o1)
//	      │ └──────────┤              │
//	      │          o1 ├── Cc ─ Rz ──┤ out ── CL
//	   M1 ┤inp       inn├ M2          │
//	      │    tail     │          M7 │   (sink, vbn)
//	      └──── M5 ─────┘              │
//	gnd ───────────────────────────────┴─────
//
// ft ≈ gm1/(2π·Cc), SR ≈ I(M5)/Cc, and the phase margin is set by the
// ratio of the output pole gm6/CL to ft — the trade the Table-6 run
// navigates under global process variations.
//
// # Five-transistor OTA
//
// The quickstart vehicle: NMOS pair M1/M2, PMOS mirror M3/M4, NMOS tail
// M5, single-ended output at the M2/M4 drain. Same testbench pattern at
// a fraction of the node count.
package circuits
