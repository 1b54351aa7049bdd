package graph

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
)

func TestWriteReadRoundTripUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	g := RandomConnected(40, 5, WeightRange{Min: 1, Max: 90}, rng)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != g.N() || got.NumEdges() != g.NumEdges() || got.Directed() {
		t.Fatalf("round trip mismatch: n=%d m=%d", got.N(), got.NumEdges())
	}
	if !got.ExactAPSP().Equal(g.ExactAPSP()) {
		t.Fatal("round trip changed distances")
	}
}

func TestWriteReadRoundTripDirectedCapped(t *testing.T) {
	g := NewDirected(5)
	g.AddArc(0, 1, 3)
	g.AddArc(1, 0, 7)
	g.AddArc(2, 4, 1)
	g.SetCap(12)
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Directed() {
		t.Fatal("directedness lost")
	}
	if got.Cap() != 12 {
		t.Fatalf("cap = %d, want 12", got.Cap())
	}
	if got.NumArcs() != 3 {
		t.Fatalf("arcs = %d, want 3", got.NumArcs())
	}
	if !got.ExactAPSP().Equal(g.ExactAPSP()) {
		t.Fatal("round trip changed distances")
	}
}

func TestReadGraphErrors(t *testing.T) {
	cases := map[string]string{
		"no problem line":    "e 0 1 5\n",
		"duplicate problem":  "p 3 0\np 3 0\n",
		"bad edge count":     "p 3 2\ne 0 1 5\n",
		"self loop":          "p 3 1\ne 1 1 5\n",
		"out of range":       "p 3 1\ne 0 7 5\n",
		"negative weight":    "p 3 1\ne 0 1 -5\n",
		"unknown record":     "x hello\n",
		"malformed problem":  "p 3\n",
		"malformed edge":     "p 3 1\ne 0 1\n",
		"zero nodes":         "p 0 0\n",
		"too many nodes":     "p 1048577 0\n",
		"absurd node count":  "p 101000000000 000\n",
		"malformed cap line": "cap\np 2 0\n",
		"empty input":        "",
	}
	for name, input := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadGraph(strings.NewReader(input)); err == nil {
				t.Fatalf("accepted %q", input)
			}
		})
	}
}

func TestReadGraphTolerance(t *testing.T) {
	// Comments, blank lines, zero weights are all fine.
	input := "c hand-written\n\np 3 2\ne 0 1 0\n\ne 1 2 4\n"
	g, err := ReadGraph(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.NumEdges() != 2 || !g.HasZeroWeights() {
		t.Fatalf("parsed n=%d m=%d", g.N(), g.NumEdges())
	}
}
