package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadGraph checks that the parser never panics and that anything it
// accepts round-trips through WriteTo/ReadGraph without changing structure.
func FuzzReadGraph(f *testing.F) {
	seeds := []string{
		"p 3 2\ne 0 1 5\ne 1 2 7\n",
		"c cliqueapsp directed graph\np 4 2\ne 0 1 3\ne 2 3 1\n",
		"c comment\ncap 9\np 2 1\ne 0 1 4\n",
		"p 1 0\n",
		"",
		"p 3 1\ne 0 1 0\n",
		"garbage\n",
		"p 3 9999999\n",
		"p 101000000000 000",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		g, err := ReadGraph(strings.NewReader(input))
		if err != nil {
			return // rejection is fine; panics are not
		}
		var buf bytes.Buffer
		if _, err := g.WriteTo(&buf); err != nil {
			t.Fatalf("accepted graph failed to serialize: %v", err)
		}
		back, err := ReadGraph(&buf)
		if err != nil {
			t.Fatalf("serialized graph failed to parse: %v", err)
		}
		if back.N() != g.N() || back.NumArcs() != g.NumArcs() ||
			back.Directed() != g.Directed() || back.Cap() != g.Cap() {
			t.Fatalf("round trip changed structure: n %d→%d arcs %d→%d",
				g.N(), back.N(), g.NumArcs(), back.NumArcs())
		}
	})
}
