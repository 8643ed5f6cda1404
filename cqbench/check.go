package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	cqtrees "repro"
	"repro/internal/core"
	"repro/internal/cq"
	"repro/internal/tree"
)

// answer is the library's answer for one (query, document content): the
// Boolean result, or the full answer relation in the requested order.
type answer struct {
	sat      bool
	tuples   [][]cqtrees.NodeID
	keysOnce sync.Once
	keys     map[string]bool // tuple set, built on first subset check
}

func tupleKey(t []cqtrees.NodeID) string {
	b := make([]byte, 0, 8*len(t))
	for _, v := range t {
		b = strconv.AppendInt(b, int64(v), 10)
		b = append(b, ',')
	}
	return string(b)
}

// has reports whether t is an answer; answers are shared between the
// checking goroutines.
func (a *answer) has(t []cqtrees.NodeID) bool {
	a.keysOnce.Do(func() {
		a.keys = make(map[string]bool, len(a.tuples))
		for _, u := range a.tuples {
			a.keys[tupleKey(u)] = true
		}
	})
	return a.keys[tupleKey(t)]
}

// expecter computes expected answers through the library path, on
// Documents it builds itself from the same XML the server received.
type expecter struct {
	mu   sync.Mutex
	xml  map[string][]byte // content key -> XML
	docs map[string]*docOnce
	memo map[string]*answerOnce
}

type docOnce struct {
	once sync.Once
	doc  *cqtrees.Document
	err  error
}

type answerOnce struct {
	once sync.Once
	a    *answer
	err  error
}

func newExpecter(docs []docSpec) *expecter {
	e := &expecter{xml: map[string][]byte{}, docs: map[string]*docOnce{}, memo: map[string]*answerOnce{}}
	for _, d := range docs {
		for v, x := range d.variants {
			e.xml[contentKey(d.name, v)] = x
		}
	}
	return e
}

func contentKey(name string, variant int) string { return fmt.Sprintf("%s#%d", name, variant) }

func (e *expecter) document(key string) (*cqtrees.Document, error) {
	e.mu.Lock()
	d, ok := e.docs[key]
	if !ok {
		d = &docOnce{}
		e.docs[key] = d
	}
	x := e.xml[key]
	e.mu.Unlock()
	d.once.Do(func() {
		if x == nil {
			d.err = fmt.Errorf("no document %s", key)
			return
		}
		t, err := tree.ParseXML(bytes.NewReader(x))
		if err != nil {
			d.err = err
			return
		}
		d.doc = cqtrees.Index(t)
	})
	return d.doc, d.err
}

// dropDocuments releases the benchmark's own Documents, so they do not
// count towards the measured heap.
func (e *expecter) dropDocuments() {
	e.mu.Lock()
	e.docs = map[string]*docOnce{}
	e.mu.Unlock()
}

// get returns the answer of src on the document content. kind is "bool"
// (BoolErr), "nodes" (NodesErr), "all" (AllErr: the full relation, in
// lexicographic order), "first" (AllErr in ascending document order,
// which is lexicographic NodeID order, cut at limit) or "stream" (the
// first limit answers of Tuples). order, when given, replaces the order
// of "first".
func (e *expecter) get(src, key, kind string, order []string, limit int) (*answer, error) {
	mk := fmt.Sprintf("%s|%s|%s|%v|%d", src, key, kind, order, limit)
	e.mu.Lock()
	m, ok := e.memo[mk]
	if !ok {
		m = &answerOnce{}
		e.memo[mk] = m
	}
	e.mu.Unlock()
	m.once.Do(func() {
		doc, err := e.document(key)
		if err != nil {
			m.err = err
			return
		}
		pq, err := cqtrees.Compile(src)
		if err != nil {
			m.err = err
			return
		}
		a := &answer{}
		switch kind {
		case "bool":
			a.sat, err = pq.BoolErr(doc)
		case "nodes":
			var ns []cqtrees.NodeID
			ns, err = pq.NodesErr(doc)
			for _, v := range ns {
				a.tuples = append(a.tuples, []cqtrees.NodeID{v})
			}
		case "all":
			a.tuples, err = pq.AllErr(doc)
		case "stream":
			for t := range pq.Tuples(doc) {
				if a.tuples = append(a.tuples, t); len(a.tuples) == limit {
					break
				}
			}
		default: // "first"
			if order == nil {
				order = slices.Repeat([]string{"asc"}, len(pq.Query().Head))
			}
			dirs := make([]cqtrees.Dir, len(order))
			for i, o := range order {
				if dirs[i], err = cqtrees.ParseDir(o); err != nil {
					m.err = err
					return
				}
			}
			a.tuples, err = pq.AllErr(doc, cqtrees.WithOrder(dirs...), cqtrees.WithLimit(limit))
		}
		a.sat = a.sat || len(a.tuples) > 0
		m.a, m.err = a, err
	})
	return m.a, m.err
}

// crossCheckReference compares the library path against the brute-force
// oracle core.ReferenceEvalAll on small documents.
func crossCheckReference(srcs []string, seed int64) error {
	for i := 0; i < 3; i++ {
		x := treebankXML(20+5*i, seed*7+int64(i))
		t, err := tree.ParseXML(bytes.NewReader(x))
		if err != nil {
			return err
		}
		doc := cqtrees.Index(t)
		for _, src := range srcs {
			q, err := cq.Parse(src)
			if err != nil {
				return err
			}
			pq, err := cqtrees.Prepare(q)
			if err != nil {
				return err
			}
			got, err := pq.AllErr(doc)
			if err != nil {
				return err
			}
			want := core.ReferenceEvalAll(t, q)
			sortTuples(want)
			if !equalTuples(got, want) {
				return fmt.Errorf("reference mismatch: %s on %d-node document: library %d answers, reference %d",
					src, t.Len(), len(got), len(want))
			}
		}
	}
	return nil
}

func sortTuples(ts [][]cqtrees.NodeID) {
	sort.Slice(ts, func(i, j int) bool { return slices.Compare(ts[i], ts[j]) < 0 })
}

func equalTuples(a, b [][]cqtrees.NodeID) bool {
	return slices.EqualFunc(a, b, func(x, y []cqtrees.NodeID) bool { return slices.Equal(x, y) })
}

// ---- response checking -----------------------------------------------

// evalResp is the buffered /eval response.
type evalResp struct {
	Results []struct {
		Doc       string             `json:"doc"`
		Sat       *bool              `json:"sat"`
		Nodes     []cqtrees.NodeID   `json:"nodes"`
		Tuples    [][]cqtrees.NodeID `json:"tuples"`
		Truncated bool               `json:"truncated"`
		Error     string             `json:"error"`
	} `json:"results"`
	TimedOut   bool   `json:"timed_out"`
	NextCursor string `json:"next_cursor"`
}

// errFailed marks a response the server reported as failed (an error row
// or a timeout) as opposed to a wrong answer.
type errFailed struct{ msg string }

func (e errFailed) Error() string { return e.msg }

func failed(format string, args ...any) error { return errFailed{fmt.Sprintf(format, args...)} }

// rowMatches checks one document's result against the expected answer.
func rowMatches(mode string, capN int, sat *bool, nodes []cqtrees.NodeID, tuples [][]cqtrees.NodeID, truncated bool, a *answer) error {
	switch mode {
	case "bool":
		if sat == nil || *sat != a.sat {
			return fmt.Errorf("sat mismatch: want %v", a.sat)
		}
	case "nodes":
		if len(nodes) != len(a.tuples) {
			return fmt.Errorf("nodes: got %d, want %d", len(nodes), len(a.tuples))
		}
		for i, v := range nodes {
			if a.tuples[i][0] != v {
				return fmt.Errorf("nodes differ at %d", i)
			}
		}
	default:
		return tuplesMatch(tuples, truncated, capN, true, a, false)
	}
	return nil
}

// tuplesMatch checks a (possibly capped) tuples result against a: a
// complete result equals the relation; a capped one holds exactly capN
// distinct answers. With exact, a is the first capN+1 answers in the
// reply's own order and a capped reply must equal its first capN.
func tuplesMatch(got [][]cqtrees.NodeID, truncated bool, capN int, sorted bool, a *answer, exact bool) error {
	if exact {
		if len(a.tuples) > capN {
			if !truncated || !equalTuples(got, a.tuples[:capN]) {
				return fmt.Errorf("capped result differs from the first %d answers", capN)
			}
			return nil
		}
		if truncated || !equalTuples(got, a.tuples) {
			return fmt.Errorf("result differs from the %d answers", len(a.tuples))
		}
		return nil
	}
	if capN <= 0 || len(a.tuples) <= capN {
		if truncated {
			return fmt.Errorf("truncated below the cap")
		}
		if sorted {
			if !equalTuples(got, a.tuples) {
				return fmt.Errorf("tuples: got %d, want %d or different order", len(got), len(a.tuples))
			}
			return nil
		}
		if len(got) != len(a.tuples) {
			return fmt.Errorf("tuples: got %d, want %d", len(got), len(a.tuples))
		}
	} else if !truncated || len(got) != capN {
		return fmt.Errorf("capped result: got %d truncated=%v, want %d truncated", len(got), truncated, capN)
	}
	seen := make(map[string]bool, len(got))
	for _, t := range got {
		k := tupleKey(t)
		if seen[k] || !a.has(t) {
			return fmt.Errorf("tuple %v duplicated or not an answer", t)
		}
		seen[k] = true
	}
	if sorted && !slices.IsSortedFunc(got, func(x, y []cqtrees.NodeID) int { return slices.Compare(x, y) }) {
		return fmt.Errorf("tuples not sorted")
	}
	return nil
}

func expectKind(mode string) string {
	if mode == "tuples" {
		return "all"
	}
	return mode
}

// checkSingle verifies a one-document buffered or NDJSON response.
// Capped tuples are first compared with a cheap prefix of the relation:
// the first cap+1 answers in NodeID order (the buffered path caps the
// sorted relation) or in stream order (NDJSON). Only when that differs
// is the full relation computed, and the reply must then be cap many
// distinct answers.
func checkSingle(j *job, body []byte, e *expecter) error {
	if j.ndjson {
		return checkNDJSON(j, body, e)
	}
	var r evalResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	if r.TimedOut {
		return failed("timed out")
	}
	if len(r.Results) != 1 || r.Results[0].Doc != j.doc {
		return fmt.Errorf("want one row for %s, got %d rows", j.doc, len(r.Results))
	}
	row := r.Results[0]
	if row.Error != "" {
		return failed("error row: %s", row.Error)
	}
	key := contentKey(j.doc, 0)
	if j.mode == "tuples" && j.cap > 0 {
		return checkPrefix(e, j.q.src, key, "first", j.cap, func(a *answer, exact bool) error {
			return tuplesMatch(row.Tuples, row.Truncated, j.cap, true, a, exact)
		})
	}
	a, err := e.get(j.q.src, key, expectKind(j.mode), nil, 0)
	if err != nil {
		return fmt.Errorf("expected answer: %v", err)
	}
	return rowMatches(j.mode, j.cap, row.Sat, row.Nodes, row.Tuples, row.Truncated, a)
}

// checkPrefix runs check against the first capN+1 answers of the given
// kind, and if that fails against the full relation.
func checkPrefix(e *expecter, src, key, kind string, capN int, check func(a *answer, exact bool) error) error {
	a, err := e.get(src, key, kind, nil, capN+1)
	if err != nil {
		return fmt.Errorf("expected answer: %v", err)
	}
	if check(a, true) == nil {
		return nil
	}
	if a, err = e.get(src, key, "all", nil, 0); err != nil {
		return fmt.Errorf("expected answer: %v", err)
	}
	return check(a, false)
}

func checkNDJSON(j *job, body []byte, e *expecter) error {
	var got [][]cqtrees.NodeID
	var done, summary bool
	var count int
	var truncated bool
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		if summary {
			return fmt.Errorf("line after summary")
		}
		if bytes.HasPrefix(sc.Bytes(), []byte(`{"summary":true`)) {
			var sum struct {
				Errors   int  `json:"errors"`
				TimedOut bool `json:"timed_out"`
			}
			if err := json.Unmarshal(sc.Bytes(), &sum); err != nil {
				return fmt.Errorf("ndjson summary decode: %v", err)
			}
			if sum.TimedOut || sum.Errors > 0 {
				return failed("stream summary: errors=%d timed_out=%v", sum.Errors, sum.TimedOut)
			}
			summary = true
			continue
		}
		var line struct {
			Doc       string           `json:"doc"`
			Tuple     []cqtrees.NodeID `json:"tuple"`
			Done      bool             `json:"done"`
			Count     int              `json:"count"`
			Truncated bool             `json:"truncated"`
			Error     string           `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			return fmt.Errorf("ndjson decode: %v", err)
		}
		switch {
		case line.Error != "":
			return failed("error row: %s", line.Error)
		case line.Doc != j.doc:
			return fmt.Errorf("row for %q", line.Doc)
		case line.Done:
			done, count, truncated = true, line.Count, line.Truncated
		default:
			got = append(got, line.Tuple)
		}
	}
	if !done || !summary || count != len(got) {
		return fmt.Errorf("stream incomplete: done=%v summary=%v count=%d tuples=%d", done, summary, count, len(got))
	}
	return checkPrefix(e, j.q.src, contentKey(j.doc, 0), "stream", j.cap, func(a *answer, exact bool) error {
		return tuplesMatch(got, truncated, j.cap, false, a, exact)
	})
}

// checkWalk verifies a cursor walk: each page is a full page unless it is
// the last, and the pages joined are a prefix of the ordered relation
// (the whole of it when the walk reached the end).
func checkWalk(j *job, bodies [][]byte, e *expecter) error {
	// One answer past the walk's budget tells whether a cursor was due.
	a, err := e.get(j.q.src, contentKey(j.doc, 0), "first", j.order, j.pages*j.limit+1)
	if err != nil {
		return fmt.Errorf("expected answer: %v", err)
	}
	var got [][]cqtrees.NodeID
	more := false
	for i, body := range bodies {
		var r evalResp
		if err := json.Unmarshal(body, &r); err != nil {
			return fmt.Errorf("page %d decode: %v", i, err)
		}
		if len(r.Results) != 1 || r.Results[0].Error != "" {
			return failed("page %d: bad rows", i)
		}
		page := r.Results[0].Tuples
		more = r.NextCursor != ""
		if more && len(page) != j.limit {
			return fmt.Errorf("page %d: %d tuples with a cursor", i, len(page))
		}
		got = append(got, page...)
	}
	if len(got) > len(a.tuples) || !equalTuples(got, a.tuples[:len(got)]) {
		return fmt.Errorf("walk union differs from the ordered relation")
	}
	if more != (len(a.tuples) > len(got)) {
		return fmt.Errorf("walk of %d answers ended with cursor=%v; the relation has more: %v", len(got), more, len(a.tuples) > len(got))
	}
	return nil
}

// ---- ingest-churn: answers against the live versions -----------------

// writeEvent is one churn write: name serves variant (-1 after a DELETE)
// from some instant in [start, end]. A lost write is an acknowledged
// upload whose document later went missing from the corpus; after it the
// name may read as absent.
type writeEvent struct {
	variant    int
	start, end time.Time
	rec        int // index of the write's record
	lost       bool
}

// history holds each name's write events in order.
type history map[string][]*writeEvent

// states returns the variants (-1: absent) the name may have served at
// some instant of [from, to]: a state is live from its write's start
// until the next write's end. The second result is the last write whose
// state was live in the interval (nil: the set-up upload).
func (h history) states(name string, from, to time.Time) ([]int, *writeEvent) {
	evs := h[name]
	var out []int
	var last *writeEvent
	for k := 0; k <= len(evs); k++ {
		v, liveFrom := 0, time.Time{} // the set-up state is live from the start
		var ev *writeEvent
		if k > 0 {
			ev = evs[k-1]
			v, liveFrom = ev.variant, ev.start
		}
		if k < len(evs) && evs[k].end.Before(from) {
			continue // superseded before the request started
		}
		if liveFrom.After(to) {
			break
		}
		out = append(out, v)
		if ev != nil && ev.lost {
			out = append(out, -1)
		}
		last = ev
	}
	return out, last
}

// errMissing reports a fleet read without a row for a document that the
// writes say was live throughout the request.
type errMissing struct {
	name string
	last *writeEvent
}

func (e errMissing) Error() string { return fmt.Sprintf("row for live document %s missing", e.name) }

// checkFleet verifies a fleet-wide read: every row matches a version of
// its document live during the request, and a document without a row
// was absent at some instant of it.
func checkFleet(j *job, body []byte, names []string, h history, from, to time.Time, e *expecter) error {
	var r evalResp
	if err := json.Unmarshal(body, &r); err != nil {
		return fmt.Errorf("decode: %v", err)
	}
	if r.TimedOut {
		return failed("timed out")
	}
	rows := map[string]int{}
	for i, row := range r.Results {
		if row.Error != "" {
			return failed("error row %s: %s", row.Doc, row.Error)
		}
		rows[row.Doc] = i
	}
	for _, name := range names {
		states, last := h.states(name, from, to)
		i, ok := rows[name]
		delete(rows, name)
		if !ok {
			if !slices.Contains(states, -1) {
				return errMissing{name, last}
			}
			continue
		}
		row := r.Results[i]
		mismatch := fmt.Errorf("document %s served while absent", name)
		for _, v := range states {
			if v < 0 {
				continue
			}
			a, err := e.get(j.q.src, contentKey(name, v), expectKind(j.mode), nil, 0)
			if err != nil {
				return fmt.Errorf("expected answer: %v", err)
			}
			if mismatch = rowMatches(j.mode, 0, row.Sat, row.Nodes, row.Tuples, row.Truncated, a); mismatch == nil {
				break
			}
		}
		if mismatch != nil {
			return fmt.Errorf("%s: %v", name, mismatch)
		}
	}
	for name := range rows {
		return fmt.Errorf("row for unknown document %s", name)
	}
	return nil
}
