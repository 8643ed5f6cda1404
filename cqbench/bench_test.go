package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	cqtrees "repro"
	"repro/internal/core"
	"repro/internal/cq"
)

// encode renders the job's request bytes.
func (j *job) encode(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "%s %s ndjson=%v pages=%d\n", j.method, j.path, j.ndjson, j.pages)
	buf.Write(j.payload())
	buf.WriteByte('\n')
}

func strategyOf(pq *cqtrees.PreparedQuery) string {
	switch pq.Plan().Strategy {
	case core.StrategyAcyclic:
		return "acyclic"
	case core.StrategyXProperty:
		return "xproperty"
	default:
		return "backtrack"
	}
}

// streamBytes renders the first n jobs of every stream of a fresh bench.
func streamBytes(t *testing.T, workload string, seed int64, n int) []byte {
	t.Helper()
	b, err := newBench(workload, seed, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, s := range b.streams {
		for i := 0; i < n; i++ {
			j, _ := s.take()
			j.encode(&buf)
		}
	}
	for _, d := range b.docs {
		for _, x := range d.variants {
			buf.Write(x)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequestStream(t *testing.T) {
	for _, w := range []string{"analytic", "hot-cache", "cold-fleet", "ingest-churn"} {
		a, b := streamBytes(t, w, 7, 300), streamBytes(t, w, 7, 300)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", w)
		}
		if bytes.Equal(a, streamBytes(t, w, 8, 300)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w)
		}
	}
}

// TestAnalyticTemplatesHitTheirStrategy also checks the later passes of
// a key space: a repeated x label keeps the plan but changes the
// fingerprint the result cache keys on.
func TestAnalyticTemplatesHitTheirStrategy(t *testing.T) {
	for _, tmpl := range analyticTemplates {
		seen := map[string]bool{}
		for pass := 0; pass < 3; pass++ {
			src := sprintfLabels(tmpl.text) + strings.Repeat(", NP(x)", pass)
			pq, err := cqtrees.Compile(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			if got := strategyOf(pq); got != tmpl.strategy {
				t.Errorf("%s: plan %s, template says %s", src, got, tmpl.strategy)
			}
			fp := pq.Query().Fingerprint()
			if seen[fp] {
				t.Errorf("%s: pass %d repeats a fingerprint", src, pass)
			}
			seen[fp] = true
		}
	}
}

// TestAnalyticKeysNeverRunOut draws ten times the jobs of a 25-second
// analytic run (about 60k) from one stream: it must not stall, and no
// two jobs of one card may share a result cache key.
func TestAnalyticKeysNeverRunOut(t *testing.T) {
	if testing.Short() {
		t.Skip("draws 600k jobs")
	}
	s := analyticStream(11, analyticDocs())
	seen := map[string]bool{}
	var later int
	for i := 0; i < 600_000; i++ {
		j, _ := s.take()
		q, err := cq.Parse(j.q.src)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		key := fmt.Sprintf("%x|%s|%s|%v|%d", sha256.Sum256([]byte(q.Fingerprint())), j.doc, j.mode, j.ndjson, j.pages)
		if seen[key] {
			t.Fatalf("job %d repeats the key of %s on %s", i, j.q.src, j.doc)
		}
		seen[key] = true
		if strings.Count(j.q.src, "(x)") > 1 {
			later++
		}
	}
	if later == 0 {
		t.Error("no key space reached its second pass")
	}
}

func sprintfLabels(text string) string {
	b := []byte(text)
	b = bytes.ReplaceAll(b, []byte("%[1]s"), []byte("NP"))
	b = bytes.ReplaceAll(b, []byte("%[2]s"), []byte("PP"))
	b = bytes.ReplaceAll(b, []byte("%[3]s"), []byte("NN"))
	return string(b)
}

// TestWrongExpectedAnswerFailsTheRun corrupts every expected answer of a
// hot-cache run: the run must report itself incorrect.
func TestWrongExpectedAnswerFailsTheRun(t *testing.T) {
	b, err := newBench("hot-cache", 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.precompute(); err != nil {
		t.Fatal(err)
	}
	b.setups = 1
	res, err := b.runMeasured(500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("clean run: correct=%v failed=%d", res.Correct, res.Failed)
	}
	for _, m := range b.exp.memo {
		if a := m.a; a != nil && len(a.tuples) > 0 {
			a.tuples = a.tuples[1:] // drop one answer
		}
	}
	res, err = b.runMeasured(500*time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run against wrong expected answers reported correct")
	}
}

// tracedRun runs a short traced replay and returns its spans, dump path
// and reported per-layer metrics.
func tracedRun(t *testing.T, workload string) ([]*span, string, *result) {
	t.Helper()
	out := t.TempDir()
	b, err := newBench(workload, 5, filepath.Join(out, "work"))
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	if err := b.precompute(); err != nil {
		t.Fatal(err)
	}
	b.warmup = 0
	res, err := b.runTraced(time.Second, out, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("%s traced run reported wrong answers", workload)
	}
	return b.trace.spans, filepath.Join(out, "traces", workload+"-seed5.jsonl"), res
}

func TestSpanTreeWellFormed(t *testing.T) {
	for _, w := range []string{"analytic", "cold-fleet", "ingest-churn"} {
		_, path, res := tracedRun(t, w)
		spans, err := loadSpans(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := checkSpanTree(spans); err != nil {
			t.Errorf("%s: %v", w, err)
		}
		if w == "cold-fleet" && res.Metrics["corpus.hydrations_per_req"].Value == 0 {
			t.Errorf("cold-fleet: no hydrations")
		}
		var handlers int
		for _, s := range spans {
			if s.Name == "serve.handler" {
				handlers++
			}
		}
		if handlers == 0 {
			t.Errorf("%s: no handler spans", w)
		}
	}
	// The checker itself rejects a child that leaves its parent.
	bad := []*span{{ID: 1, Req: 1, Start: 0, End: 10}, {ID: 2, Parent: 1, Req: 1, Start: 5, End: 11}}
	if checkSpanTree(bad) == nil {
		t.Error("a child ending after its parent passed the check")
	}
	twoRoots := []*span{{ID: 1, Req: 1, End: 1}, {ID: 2, Req: 1, End: 1}}
	if checkSpanTree(twoRoots) == nil {
		t.Error("two roots with one request id passed the check")
	}
}

func TestLayerMetricsRecomputeFromDump(t *testing.T) {
	_, path, res := tracedRun(t, "analytic")
	spans, err := loadSpans(path)
	if err != nil {
		t.Fatal(err)
	}
	got := computeLayerMetrics(spans)
	for _, l := range layerMetrics {
		if got[l.name] != res.Metrics[l.name].Value {
			t.Errorf("%s: recomputed %v, reported %v", l.name, got[l.name], res.Metrics[l.name].Value)
		}
	}
	if got["core.evals_backtrack"] == 0 || got["serve.path_paginated"] == 0 || got["trace.coverage"] <= 0 {
		t.Errorf("analytic trace misses a strategy, a path or coverage: %v", got)
	}
}

// TestReplyLogRoundTrip: the log gives back what was added, in order, and
// keeps a repeated body of a registered query once.
func TestReplyLogRoundTrip(t *testing.T) {
	l := newReplyLog()
	defer l.free()
	reg := &job{q: &query{name: "q0"}}
	adhoc := &job{q: &query{}}
	jobs := [][]*job{{reg, adhoc}}
	t0 := time.Now()
	in := []record{
		{j: reg, start: t0, end: t0.Add(time.Millisecond), body: []byte("same"), hash: 1, status: 200},
		{j: adhoc, start: t0.Add(time.Second), end: t0.Add(2 * time.Second), body: []byte("other"), hash: 2, status: 504},
		{j: reg, start: t0, end: t0, body: []byte("same"), hash: 1, status: 200, verdict: failed("boom")},
	}
	seqs := []int{0, 1, 0}
	for i, r := range in {
		l.add(0, seqs[i], r, i != 1)
	}
	out := l.records(jobs)
	if len(out) != len(in) {
		t.Fatalf("%d records back, want %d", len(out), len(in))
	}
	for i, r := range out {
		w := in[i]
		if r.j != jobs[0][seqs[i]] || !r.start.Equal(w.start) || !r.end.Equal(w.end) || string(r.body) != string(w.body) ||
			r.hash != w.hash || r.status != w.status || r.measured != (i != 1) || (r.verdict == nil) != (w.verdict == nil) {
			t.Errorf("record %d: got %+v, want %+v", i, r, w)
		}
	}
	if l.bodies.used != len("same")+len("other") {
		t.Errorf("bodies use %d bytes; the repeated one should be kept once", l.bodies.used)
	}
}
