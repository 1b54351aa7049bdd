package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/url"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"github.com/congestedclique/cliqueapsp/oracle"
)

// refPair and refEdge are the pair and edge decoders from before the
// integer-array scan, kept verbatim as the reference FuzzDecodeBody checks
// jsonPair and jsonEdge against.
type refPair oracle.Pair

func (p *refPair) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var arr []int
		if err := json.Unmarshal(b, &arr); err != nil {
			return err
		}
		if len(arr) != 2 {
			return fmt.Errorf("pair %s: want [u, v]", trimmed)
		}
		p.U, p.V = arr[0], arr[1]
		return nil
	}
	var obj struct {
		U *int `json:"u"`
		V *int `json:"v"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return err
	}
	if obj.U == nil || obj.V == nil {
		return fmt.Errorf("pair %s: want both u and v", trimmed)
	}
	p.U, p.V = *obj.U, *obj.V
	return nil
}

type refEdge struct {
	U, V int
	W    int64
}

func (e *refEdge) UnmarshalJSON(b []byte) error {
	trimmed := strings.TrimSpace(string(b))
	if strings.HasPrefix(trimmed, "[") {
		var arr []int64
		if err := json.Unmarshal(b, &arr); err != nil {
			return err
		}
		if len(arr) != 2 && len(arr) != 3 {
			return fmt.Errorf("edge %s: want [u, v] or [u, v, w]", trimmed)
		}
		e.U, e.V, e.W = int(arr[0]), int(arr[1]), 1
		if len(arr) == 3 {
			e.W = arr[2]
		}
		return nil
	}
	var obj struct {
		U *int   `json:"u"`
		V *int   `json:"v"`
		W *int64 `json:"w"`
	}
	if err := json.Unmarshal(b, &obj); err != nil {
		return err
	}
	if obj.U == nil || obj.V == nil {
		return fmt.Errorf("edge %s: want u and v", trimmed)
	}
	e.U, e.V, e.W = *obj.U, *obj.V, 1
	if obj.W != nil {
		e.W = *obj.W
	}
	return nil
}

// refNames maps the reference types' names to the scanning types' in error
// messages: a type error on the whole body names the struct it decodes into.
var refNames = strings.NewReplacer("main.refPair", "main.jsonPair", "main.refEdge", "main.jsonEdge")

// sameDecode reports whether two decodes agree: both failed with the same
// message, or both succeeded with the same value.
func sameDecode(got, want any, gotErr, wantErr error) error {
	switch {
	case (gotErr == nil) != (wantErr == nil):
		return fmt.Errorf("error %v, reference error %v", gotErr, wantErr)
	case gotErr != nil:
		if gotErr.Error() != refNames.Replace(wantErr.Error()) {
			return fmt.Errorf("error %q, reference error %q", gotErr, wantErr)
		}
	case !reflect.DeepEqual(got, want):
		return fmt.Errorf("decoded %+v, reference %+v", got, want)
	}
	return nil
}

// FuzzDecodeBody decodes each input through decodeStrict as a batch body
// and as a JSON graph body, with the scanning decoders and with the
// reference ones. The structs are anonymous, as in the handlers, so the
// field context encoding/json adds to type errors reads the same for both.
func FuzzDecodeBody(f *testing.F) {
	for _, seed := range []string{
		// bodies the server tests send
		`{"pairs":[[0,1],[0,3],{"u":3,"v":0}]}`,
		`{"pairs":`,
		`{"pairs":[]}`,
		`{"pairs":[[0,1,2]]}`,
		`{"pairs":[[0,1]]}{"oops":1}`,
		`{"pairs":[[0,1]]} garbage`,
		"{\"pairs\":[[0,1]]}\n\t \n",
		`{"n":4,"edges":[[0,1,3],{"u":1,"v":2,"w":1},[2,3,2]]}`,
		`{"n":2,"edges":[[0,1,5]]}[1,2]`,
		`{"n":3,"edges":[{"u":0,"v":1},{"u":1,"v":0,"w":5}]}`,
		`{"n":9,"edges":[]}`,
		// floats, exponents, -0, leading zeros, overflow
		`{"pairs":[[1.5,2]],"edges":[[0,1,2.0]]}`,
		`{"pairs":[[1e2,0]],"edges":[[0,1,1E3]]}`,
		`{"pairs":[[-0,0]],"edges":[[-0,1,-0]]}`,
		`{"pairs":[[01,2]]}`,
		`{"pairs":[[9223372036854775807,-9223372036854775808]],"edges":[[0,1,9223372036854775807]]}`,
		`{"pairs":[[9223372036854775808,0]],"edges":[[0,1,-9223372036854775809]]}`,
		// null, in and around the arrays
		`{"pairs":null,"edges":null}`,
		`{"pairs":[null],"edges":[null]}`,
		`{"pairs":[[null,1]],"edges":[[0,null,3]]}`,
		// whitespace and 1-4 element arrays
		"{\"pairs\":[ [ 0 ,\t1 ] ,\n[2,3]\r],\"edges\":[ [0 , 1 , 2 ] ]}",
		`{"pairs":[[]],"edges":[[]]}`,
		`{"pairs":[[0]],"edges":[[0]]}`,
		`{"pairs":[[0,1]],"edges":[[0,1]]}`,
		`{"pairs":[[0,1,2]],"edges":[[0,1,2]]}`,
		`{"pairs":[[0,1,2,3]],"edges":[[0,1,2,3]]}`,
		// object forms, complete and not, and wrong element types
		`{"pairs":[{"u":1,"v":2},{"v":2,"u":1,"x":0}],"edges":[{"u":1,"v":2,"w":3}]}`,
		`{"pairs":[{"u":1}],"edges":[{"v":2,"w":3}]}`,
		`{"pairs":[{"u":1.5,"v":2}],"edges":[{"u":"1","v":2}]}`,
		`{"pairs":[["0",1]],"edges":[[true,1]]}`,
		`{"pairs":[[[0],1]],"edges":[[{},1]]}`,
		`{"pairs":[1],"edges":["e"]}`,
		`000`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var pairs struct {
			Pairs []jsonPair `json:"pairs"`
		}
		var refPairs struct {
			Pairs []refPair `json:"pairs"`
		}
		err := decodeStrict(bytes.NewReader(body), &pairs)
		refErr := decodeStrict(bytes.NewReader(body), &refPairs)
		got := make([]oracle.Pair, len(pairs.Pairs))
		for i, p := range pairs.Pairs {
			got[i] = oracle.Pair(p)
		}
		want := make([]oracle.Pair, len(refPairs.Pairs))
		for i, p := range refPairs.Pairs {
			want[i] = oracle.Pair(p)
		}
		if d := sameDecode(got, want, err, refErr); d != nil {
			t.Fatalf("batch body %q: %v", body, d)
		}

		var graph struct {
			N     int        `json:"n"`
			Edges []jsonEdge `json:"edges"`
		}
		var refGraph struct {
			N     int       `json:"n"`
			Edges []refEdge `json:"edges"`
		}
		err = decodeStrict(bytes.NewReader(body), &graph)
		refErr = decodeStrict(bytes.NewReader(body), &refGraph)
		gotEdges := make([]refEdge, len(graph.Edges))
		for i, e := range graph.Edges {
			gotEdges[i] = refEdge(e)
		}
		wantEdges := make([]refEdge, len(refGraph.Edges))
		copy(wantEdges, refGraph.Edges)
		if d := sameDecode([]any{graph.N, gotEdges}, []any{refGraph.N, wantEdges}, err, refErr); d != nil {
			t.Fatalf("graph body %q: %v", body, d)
		}
	})
}

// encodeJSON is writeJSON's encoding of v: the bytes the append encoders
// must reproduce.
func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAnswerEncodersMatchJSONEncoder compares the three append encoders with
// json.Encoder on every exported field filled at random (so a field added to
// an answer type without an encoder change fails here) and on edge cases.
func TestAnswerEncodersMatchJSONEncoder(t *testing.T) {
	check := func(name string, got []byte, v any) {
		t.Helper()
		if want := encodeJSON(t, v); !bytes.Equal(got, want) {
			t.Fatalf("%s %+v:\n got %q\nwant %q", name, v, got, want)
		}
	}
	var dists []oracle.DistResult
	var batches []oracle.BatchResult
	var paths []oracle.PathResult
	for _, d := range []int64{oracle.Unreachable, 0, math.MaxInt64, math.MinInt64} {
		a := oracle.Answer{U: int(d), V: -int(d), Distance: d, Reachable: d >= 0}
		dists = append(dists, oracle.DistResult{Answer: a, Version: uint64(d)})
		batches = append(batches, oracle.BatchResult{Version: math.MaxUint64, Answers: []oracle.Answer{a, a}})
		paths = append(paths, oracle.PathResult{U: int(d), V: 1, Reachable: d >= 0, Path: []int{int(d), 0}, Cost: d, Version: uint64(d)})
	}
	batches = append(batches, oracle.BatchResult{}, oracle.BatchResult{Version: 3, Answers: []oracle.Answer{}})
	paths = append(paths,
		oracle.PathResult{U: 1, V: 2, Cost: oracle.Unreachable, Version: 4},                // nil Path
		oracle.PathResult{U: 1, V: 2, Path: []int{}, Cost: oracle.Unreachable, Version: 4}, // empty Path
		oracle.PathResult{U: 5, V: 5, Reachable: true, Path: []int{5}, Version: 1})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		var d oracle.DistResult
		var b oracle.BatchResult
		var p oracle.PathResult
		for _, dst := range []any{&d, &b, &p} {
			v, ok := quick.Value(reflect.TypeOf(dst).Elem(), rng)
			if !ok {
				t.Fatalf("cannot generate a random %T", dst)
			}
			reflect.ValueOf(dst).Elem().Set(v)
		}
		dists, batches, paths = append(dists, d), append(batches, b), append(paths, p)
	}
	for _, v := range dists {
		check("DistResult", appendDistResult(nil, v), v)
	}
	for _, v := range batches {
		check("BatchResult", appendBatchResult(nil, v), v)
	}
	for _, v := range paths {
		check("PathResult", appendPathResult(nil, v), v)
	}
}

// queryCases are raw query strings on which queryUV must agree with
// url.ParseQuery: escaped, repeated, empty, ';'-bearing and malformed.
var queryCases = []string{
	"", "u=3&v=250", "v=250&u=3", "u=3", "v=4", "&&u=1&&v=2&",
	// escapes and '+'
	"u=%33&v=2%35", "%75=7&%76=8", "u=+4&v=5+", "u=%2B4&v=-%31", "u%3D1=2&v=3",
	// repeated keys: the first well-formed value wins
	"u=1&u=2&v=3&v=4", "u=%zz&u=5&v=6", "u&u=9&v=1", "u=&u=2&v=3",
	// empty values and keys
	"u=&v=", "=1&u=2&v=3", "u==1&v=2", "u=1=2&v=3",
	// ';' makes ParseQuery skip the pair
	"u=1;v=2", "u=1;x&u=4&v=5", "x=1;u=2&u=3&v=4", ";&u=6&v=7",
	// malformed escapes in other keys, values and the keys themselves
	"%zz=1&u=2&v=3", "a=%&u=3&v=4", "u%=1&u=2&v=3", "u=%4&v=5", "u=1&v=%",
	"u=%E2%82%AC&v=1", "u=0x10&v=1e3", "U=1&V=2", "u=1&v=2#frag",
}

// checkQueryUV compares queryUV with url.ParseQuery and Get, and queryPair
// with the same parse's integers and error text.
func checkQueryUV(t *testing.T, raw string) {
	t.Helper()
	q := (&url.URL{RawQuery: raw}).Query()
	if u, v := queryUV(raw); u != q.Get("u") || v != q.Get("v") {
		t.Errorf("queryUV(%q) = %q, %q; ParseQuery gives %q, %q", raw, u, v, q.Get("u"), q.Get("v"))
	}
	u, v, err := queryPair(&http.Request{URL: &url.URL{RawQuery: raw}})
	wu, wv, werr := refQueryPair(q)
	if u != wu || v != wv || fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Errorf("queryPair(%q) = %d, %d, %v; want %d, %d, %v", raw, u, v, err, wu, wv, werr)
	}
}

func TestQueryUVMatchesParseQuery(t *testing.T) {
	for _, raw := range queryCases {
		checkQueryUV(t, raw)
	}
}

func FuzzQueryUV(f *testing.F) {
	for _, raw := range queryCases {
		f.Add(raw)
	}
	f.Fuzz(checkQueryUV)
}

// refQueryPair is queryPair as it read before the hand parse.
func refQueryPair(q url.Values) (int, int, error) {
	u, err := strconv.Atoi(q.Get("u"))
	if err != nil {
		return 0, 0, fmt.Errorf("query parameter u: want an integer node index")
	}
	v, err := strconv.Atoi(q.Get("v"))
	if err != nil {
		return 0, 0, fmt.Errorf("query parameter v: want an integer node index")
	}
	return u, v, nil
}
