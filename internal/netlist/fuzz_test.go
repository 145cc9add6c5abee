package netlist

import "testing"

// FuzzNetlistParse feeds arbitrary text to the parser that reads the
// inline netlists of service requests. It must return a deck or an
// error, never panic, and an accepted deck must be consistent: every
// named node is ground (index −1) or one of the circuit's nodes, and
// every MOSFET is one of its devices. The seed corpus
// (testdata/fuzz/FuzzNetlistParse) holds the example amplifier and the
// decks of this package's tests; `go test` runs it as plain tests, and
//
//	go test -run XXX -fuzz FuzzNetlistParse -fuzztime 60s ./internal/netlist
//
// explores further.
func FuzzNetlistParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		deck, err := ParseString(src)
		if err != nil {
			if deck != nil {
				t.Fatalf("error %v came with a deck", err)
			}
			return
		}
		if deck.Circuit == nil {
			t.Fatal("accepted deck has no circuit")
		}
		for name, idx := range deck.Nodes {
			if idx < -1 || idx >= deck.Circuit.NumNodes() || deck.Circuit.NodeName(idx) != name && idx != -1 {
				t.Fatalf("node %q has index %d (circuit has %d nodes)", name, idx, deck.Circuit.NumNodes())
			}
		}
		for name, m := range deck.Mosfets {
			if deck.Circuit.FindDevice(name) == nil || m == nil {
				t.Fatalf("MOSFET %q is not in the circuit", name)
			}
		}
	})
}
