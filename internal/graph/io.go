package graph

import (
	"bufio"
	"fmt"
	"io"
	"strings"
)

// WriteTo serializes the graph in a plain edge-list format:
//
//	c <comment lines>
//	p <n> <m>
//	e <u> <v> <w>      (one line per undirected edge / directed arc)
//
// — a DIMACS-flavoured format that survives hand editing and diffing.
// Directed graphs write one "e" line per arc; undirected per edge.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var total int64
	count := func(n int, err error) error {
		total += int64(n)
		return err
	}
	kind := "undirected"
	m := g.NumEdges()
	if g.directed {
		kind = "directed"
		m = g.arcs
	}
	if err := count(fmt.Fprintf(bw, "c cliqueapsp %s graph\n", kind)); err != nil {
		return total, err
	}
	if g.cap > 0 {
		if err := count(fmt.Fprintf(bw, "cap %d\n", g.cap)); err != nil {
			return total, err
		}
	}
	if err := count(fmt.Fprintf(bw, "p %d %d\n", g.n, m)); err != nil {
		return total, err
	}
	for u := 0; u < g.n; u++ {
		for _, a := range g.adj[u] {
			if !g.directed && a.To < u {
				continue
			}
			if err := count(fmt.Fprintf(bw, "e %d %d %d\n", u, a.To, a.W)); err != nil {
				return total, err
			}
		}
	}
	return total, bw.Flush()
}

// maxReadNodes bounds the node count ReadGraph accepts. The problem line is
// untrusted input and n sizes an allocation before any edge is read, so a
// 20-byte line must not be able to ask for terabytes; no graph this large
// fits the n² distance matrices the library builds anyway.
const maxReadNodes = 1 << 20

// ReadGraph parses the WriteTo format. The graph kind (directed or
// undirected) is taken from the comment header; absent a header, undirected
// is assumed.
func ReadGraph(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<22)
	var g *Graph
	directed := false
	var cap int64
	line := 0
	edges := 0
	declared := -1
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		fields := strings.Fields(text)
		switch fields[0] {
		case "c":
			for _, f := range fields[1:] {
				if f == "directed" {
					directed = true
				}
			}
		case "cap":
			if len(fields) != 2 {
				return nil, fmt.Errorf("graph: line %d: malformed cap line", line)
			}
			if _, err := fmt.Sscanf(fields[1], "%d", &cap); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
		case "p":
			if g != nil {
				return nil, fmt.Errorf("graph: line %d: duplicate problem line", line)
			}
			var n, m int
			if len(fields) != 3 {
				return nil, fmt.Errorf("graph: line %d: malformed problem line", line)
			}
			if _, err := fmt.Sscanf(fields[1]+" "+fields[2], "%d %d", &n, &m); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			if n < 1 || n > maxReadNodes {
				return nil, fmt.Errorf("graph: line %d: node count %d outside [1,%d]", line, n, maxReadNodes)
			}
			declared = m
			if directed {
				g = NewDirected(n)
			} else {
				g = New(n)
			}
			if cap > 0 {
				g.SetCap(cap)
			}
		case "e":
			if g == nil {
				return nil, fmt.Errorf("graph: line %d: edge before problem line", line)
			}
			var u, v int
			var w int64
			if len(fields) != 4 {
				return nil, fmt.Errorf("graph: line %d: malformed edge line", line)
			}
			if _, err := fmt.Sscanf(strings.Join(fields[1:], " "), "%d %d %d", &u, &v, &w); err != nil {
				return nil, fmt.Errorf("graph: line %d: %w", line, err)
			}
			if u == v {
				return nil, fmt.Errorf("graph: line %d: edge %d: self loop at node %d", line, edges, u)
			}
			if u < 0 || u >= g.n || v < 0 || v >= g.n || w < 0 {
				return nil, fmt.Errorf("graph: line %d: invalid edge %d %d %d", line, u, v, w)
			}
			if directed {
				g.AddArc(u, v, w)
			} else {
				g.AddEdge(u, v, w)
			}
			edges++
		default:
			return nil, fmt.Errorf("graph: line %d: unknown record %q", line, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if g == nil {
		return nil, fmt.Errorf("graph: missing problem line")
	}
	if declared >= 0 && edges != declared {
		return nil, fmt.Errorf("graph: %d edges read, %d declared", edges, declared)
	}
	return g, nil
}
