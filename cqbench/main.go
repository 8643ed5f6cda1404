// Command cqbench is the repository's benchmark. It runs the in-process
// serving tier (internal/serve) behind a loopback HTTP listener, drives it
// through its public HTTP API with a closed loop of one or two callers, checks
// every reply against answers computed through the library, and prints
// the workload's metrics. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"
)

// e2eMetric is one end-to-end metric as BENCHMARK.json lists it.
type e2eMetric struct{ name, unit string }

var e2eMetrics = []e2eMetric{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ok_ratio", "ratio"},
	{"allocs_per_req", "count"},
	{"peak_heap_mb", "MB"},
}

// extraMetrics are printed on stderr only, as they did not repeat within
// the bounds between runs on a shared two-core machine: p99 (p90 is the
// reported tail) and the write percentiles.
var extraMetrics = []e2eMetric{
	{"latency_p99_ms", "ms"},
	{"write_p50_ms", "ms"},
	{"write_p90_ms", "ms"},
	{"write_p99_ms", "ms"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "analytic", "workload: analytic, hot-cache, cold-fleet or ingest-churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	traced := flag.Int("trace", 0, "1: traced serial replay reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the trace and the run's data directories")
	flag.Parse()
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "cqbench: --seconds must be positive, --trace 0 or 1")
		os.Exit(2)
	}
	res, err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *traced == 1, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark run and returns its result line.
func run(workload string, seed int64, d time.Duration, traced bool, out string) (*result, error) {
	workDir := filepath.Join(out, fmt.Sprintf("work-%s-%d-%d", workload, seed, os.Getpid()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(workDir)
	b, err := newBench(workload, seed, workDir)
	if err != nil {
		return nil, err
	}
	defer b.close()

	srcs := referenceSample(b, seed)
	wrongRef := crossCheckReference(srcs, seed)
	if wrongRef != nil {
		fmt.Fprintln(os.Stderr, "cqbench: WRONG:", wrongRef)
	}
	if err := b.precompute(); err != nil {
		return nil, err
	}
	if traced {
		return b.runTraced(d, out, wrongRef)
	}
	return b.runMeasured(d, wrongRef)
}

// referenceSample picks the queries cross-checked against the brute-force
// oracle: every registered query, or one instance of each analytic
// template.
func referenceSample(b *bench, seed int64) []string {
	if len(b.queries) > 0 {
		var srcs []string
		for _, q := range b.queries {
			srcs = append(srcs, q.src)
		}
		return srcs
	}
	var srcs []string
	for i, t := range analyticTemplates {
		srcs = append(srcs, fmt.Sprintf(t.text, phraseLabels[(int(seed)+i)%len(phraseLabels)],
			anyLabels[(int(seed)+2*i)%len(anyLabels)], posLabels[(int(seed)+3*i)%len(posLabels)]))
	}
	return srcs
}

// precompute computes the expected answers of every (registered query,
// document content) pair at set-up, then drops the benchmark's own
// Documents. Analytic queries are ad hoc and are answered after the run.
func (b *bench) precompute() error {
	if len(b.queries) == 0 {
		return nil
	}
	type task struct {
		q   *query
		key string
	}
	var tasks []task
	for _, d := range b.docs {
		for v := range d.variants {
			for _, q := range b.queries {
				tasks = append(tasks, task{q, contentKey(d.name, v)})
			}
		}
	}
	errs := parallel(len(tasks), func(i int) error {
		t := tasks[i]
		kind := "all"
		switch {
		case t.q.monadic:
			kind = "nodes"
		case len(b.regPQ[t.q.name].Query().Head) == 0:
			kind = "bool"
		}
		_, err := b.exp.get(t.q.src, t.key, kind, nil, 0)
		return err
	})
	b.exp.dropDocuments()
	return errors.Join(errs...)
}

// parallel runs fn(0..n-1) on GOMAXPROCS workers and returns the errors.
func parallel(n int, fn func(i int) error) []error {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return errs
}

// runMeasured is the untraced run: repeated set-up, warm-up, then the
// measured closed loop, then answer checking.
func (b *bench) runMeasured(d time.Duration, wrongRef error) (*result, error) {
	// Set-up runs b.setups+1 times; the first one warms the process (code,
	// heap size) and is not counted.
	var setups []float64
	var uploads []record
	for r := 0; r <= b.setups; r++ {
		b.close()
		b.srv = nil
		runtime.GC() // start every set-up from a collected heap, the last server gone
		dur, recs, err := b.setup(r)
		if err != nil {
			return nil, err
		}
		if r > 0 {
			setups = append(setups, dur.Seconds())
			uploads = append(uploads, recs...)
		}
	}
	runtime.GC()
	log := newReplyLog()
	defer log.free()
	b.loop(time.Now().Add(b.warmup), false, log)

	before, err := b.scrape()
	if err != nil {
		return nil, err
	}
	sampler := sampleHeap(10 * time.Millisecond)
	m0 := mallocs()
	t0 := time.Now()
	b.loop(t0.Add(d), true, log)
	span := time.Since(t0)
	allocs := mallocs() - m0
	heap := sampler.finish()
	after, err := b.scrape()
	if err != nil {
		return nil, err
	}
	b.close()

	all := log.records(b.takenJobs())
	tv := time.Now()
	wrong, failedN := b.verify(all)
	fmt.Fprintf(os.Stderr, "cqbench: checked %d replies in %.1fs\n", len(all), time.Since(tv).Seconds())
	if wrongRef != nil {
		wrong++
	}

	// Throughput and read latencies are medians over equal slices of the
	// window (by completion time), so a short stall of a shared machine
	// moves one slice, not the figure. A slice holds at least
	// minPerWindow reads; up to maxWindows slices.
	var nReads, nWrites int
	for _, r := range all {
		if !r.measured {
			continue
		}
		if r.j.isWrite() {
			nWrites++
		} else {
			nReads++
		}
	}
	nw := min(maxWindows, max(1, nReads/minPerWindow))
	windows := make([]window, nw)
	slot := func(at time.Time) int {
		return min(nw-1, max(0, int(float64(at.Sub(t0))/float64(span)*float64(nw))))
	}
	var attempted, ok int
	for _, r := range all {
		if !r.measured {
			continue
		}
		attempted++
		w := &windows[slot(r.end)]
		if r.verdict == nil {
			ok++
			w.ok++
		}
		ms := float64(r.latency()) / 1e6
		if r.j.isWrite() {
			w.writes = append(w.writes, ms)
		} else {
			w.reads = append(w.reads, ms)
		}
	}
	// The highest live heap sample of the whole window is the extreme of
	// transient peaks, and it grows with the window's length: peak_heap_mb
	// is the median over slices of each slice's peak.
	for _, h := range heap {
		w := &windows[slot(h.at)]
		w.heap = max(w.heap, float64(h.bytes)/(1<<20))
	}
	// Writes are fewer than reads: their percentiles pool the whole
	// window. Without churn, the writes are the set-up uploads.
	var writes []float64
	for _, w := range windows {
		writes = append(writes, w.writes...)
	}
	if b.workload != "ingest-churn" {
		writes = writes[:0]
		for _, u := range uploads {
			writes = append(writes, float64(u.latency())/1e6)
		}
		nWrites = len(uploads)
	}
	sliceLen := span.Seconds() / float64(nw)
	m := map[string]float64{
		"setup_s":        median(setups),
		"throughput_rps": perWindow(windows, func(w window) float64 { return float64(w.ok) / sliceLen }),
		"latency_p50_ms": perWindow(windows, func(w window) float64 { return pct(w.reads, 0.5) }),
		"latency_p90_ms": perWindow(windows, func(w window) float64 { return pct(w.reads, 0.9) }),
		"latency_p99_ms": perWindow(windows, func(w window) float64 { return pct(w.reads, 0.99) }),
		"write_p50_ms":   pct(writes, 0.5),
		"write_p90_ms":   pct(writes, 0.9),
		"write_p99_ms":   pct(writes, 0.99),
		"ok_ratio":       ratio(float64(ok), float64(attempted)),
		"allocs_per_req": ratio(float64(allocs), float64(attempted)),
		"peak_heap_mb":   perWindow(windows, func(w window) float64 { return w.heap }),
	}
	res := &result{Correct: wrong == 0, Attempted: attempted, Failed: attempted - ok, Metrics: map[string]metricValue{}}
	for _, e := range e2eMetrics {
		res.Metrics[e.name] = metricValue{m[e.name], e.unit}
	}
	report(os.Stderr, b, res, m, failedN, wrong, nReads, nWrites, before, after, all)
	return res, nil
}

// The measured window is cut into at most maxWindows slices of at least
// minPerWindow reads each.
const (
	maxWindows   = 10
	minPerWindow = 200
)

// window is one slice of the measured window.
type window struct {
	ok            int
	reads, writes []float64
	heap          float64 // highest live heap sampled, MB
}

// perWindow is the median over slices of f.
func perWindow(ws []window, f func(window) float64) float64 {
	var xs []float64
	for _, w := range ws {
		xs = append(xs, f(w))
	}
	return median(xs)
}

// pct is the q-quantile of xs (unsorted).
func pct(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

// runTraced is the traced run: one set-up replayed through the layer
// decomposition, then the request stream replayed serially.
func (b *bench) runTraced(d time.Duration, out string, wrongRef error) (*result, error) {
	b.trace = newTracer()
	if b.persisted {
		b.dataDir = filepath.Join(b.workDir, "data-traced")
	}
	if err := b.start(); err != nil {
		return nil, err
	}
	var all []record
	for _, doc := range b.docs {
		all = append(all, b.tracedJob(putJob(doc, 0))...)
	}
	if b.dataDir != "" {
		b.close()
		if err := b.start(); err != nil {
			return nil, err
		}
	}
	for _, q := range b.queries {
		j := &job{method: "PUT", path: "/queries/" + q.name, body: mustJSON(map[string]string{"query": q.src})}
		if r := b.do(j, j.payload(), nil); r.verdict != nil || r.status >= 300 {
			return nil, fmt.Errorf("register %s: status %d %v", q.name, r.status, r.verdict)
		}
	}
	warmup := time.Now().Add(b.warmup)
	i := 0
	for ; time.Now().Before(warmup); i++ {
		j, _ := b.streams[b.streamFor(i)].take()
		all = append(all, b.runJob(j)...)
	}
	deadline := time.Now().Add(d)
	for ; time.Now().Before(deadline); i++ {
		j, _ := b.streams[b.streamFor(i)].take()
		for _, r := range b.tracedJob(j) {
			r.measured = true
			all = append(all, r)
		}
	}
	b.close()
	wrong, _ := b.verify(all)
	if wrongRef != nil {
		wrong++
	}
	spans := b.trace.spans
	if err := checkSpanTree(spans); err != nil {
		return nil, fmt.Errorf("span tree: %w", err)
	}
	path := filepath.Join(out, "traces", fmt.Sprintf("%s-seed%d.jsonl", b.workload, b.seed))
	if err := dumpSpans(path, spans); err != nil {
		return nil, err
	}
	lm := computeLayerMetrics(spans)
	res := &result{Correct: wrong == 0, Metrics: map[string]metricValue{}}
	for _, r := range all {
		if r.measured {
			res.Attempted++
			if r.verdict != nil {
				res.Failed++
			}
		}
	}
	for _, l := range layerMetrics {
		res.Metrics[l.name] = metricValue{lm[l.name], l.unit}
	}
	fmt.Fprintf(os.Stderr, "cqbench %s seed %d traced: %d requests, %d wrong, %d spans -> %s\n",
		b.workload, b.seed, res.Attempted, wrong, len(spans), path)
	for _, l := range layerMetrics {
		fmt.Fprintf(os.Stderr, "  %-38s %14.4f %s\n", l.name, lm[l.name], l.unit)
	}
	return res, nil
}

// verify checks every record and sets its verdict; it returns the number
// of wrong answers and of failed requests (errors, refusals, timeouts).
func (b *bench) verify(all []record) (wrong, failedN int) {
	// Fleet reads (persisted workloads) are checked against the versions
	// the writes made live.
	var h history
	var names []string
	if b.persisted {
		h = history{}
		for i, r := range all {
			if r.j.isWrite() && r.j.doc != "" {
				h[r.j.doc] = append(h[r.j.doc], &writeEvent{variant: r.j.variant, start: r.start, end: r.end, rec: i})
			}
		}
		for _, d := range b.docs {
			names = append(names, d.name)
			sort.Slice(h[d.name], func(i, k int) bool { return h[d.name][i].start.Before(h[d.name][k].start) })
		}
	}
	// Walk pages are checked together, in page order.
	walks := map[*job][]int{}
	var singles []int
	for i, r := range all {
		if r.j.pages > 0 {
			walks[r.j] = append(walks[r.j], i)
		} else {
			singles = append(singles, i)
		}
	}
	var memo sync.Map // (request key, body hash) -> verdict
	checkOne := func(i int) error {
		r := &all[i]
		body := r.body
		if err := statusCheck(r); err != nil {
			return fmt.Errorf("%w: %.200s", err, body)
		}
		if r.j.isWrite() {
			return nil
		}
		if r.j.doc == "" {
			return checkFleet(r.j, body, names, h, r.start, r.end, b.exp)
		}
		key := fmt.Sprintf("%s|%s|%s|%v|%d|%x", r.j.q.name, r.j.q.wire, r.j.doc, r.j.ndjson, r.j.cap, r.hash)
		if v, ok := memo.Load(key); ok {
			err, _ := v.(error)
			return err
		}
		err := checkSingle(r.j, body, b.exp)
		memo.Store(key, err)
		return err
	}
	errs := parallel(len(singles), func(k int) error { return checkOne(singles[k]) })
	// A fleet read that misses a document its last write made live means
	// that write was lost: the upload was acknowledged, then the document
	// left the corpus. The write counts as failed, and reads are checked
	// again allowing the name to be absent after it.
	for lost := true; lost; {
		lost = false
		for _, e := range errs {
			var m errMissing
			if errors.As(e, &m) && m.last != nil && !m.last.lost {
				m.last.lost, lost = true, true
				all[m.last.rec].verdict = failed("acknowledged upload of %s lost from the corpus", all[m.last.rec].j.doc)
			}
		}
		if lost {
			errs = parallel(len(singles), func(k int) error { return checkOne(singles[k]) })
		}
	}
	for k, i := range singles {
		if all[i].verdict == nil {
			all[i].verdict = errs[k]
		}
	}
	var walkJobs []*job
	for j := range walks {
		walkJobs = append(walkJobs, j)
	}
	werrs := parallel(len(walkJobs), func(k int) error {
		idx := walks[walkJobs[k]]
		var bodies [][]byte
		for _, i := range idx {
			if err := statusCheck(&all[i]); err != nil {
				return err
			}
			bodies = append(bodies, all[i].body)
		}
		return checkWalk(walkJobs[k], bodies, b.exp)
	})
	for k, j := range walkJobs {
		for _, i := range walks[j] {
			all[i].verdict = werrs[k]
		}
	}
	for _, r := range all {
		var f errFailed
		switch {
		case r.verdict == nil:
		case errors.As(r.verdict, &f):
			failedN++
			if failedN <= 3 {
				fmt.Fprintf(os.Stderr, "cqbench: failed request (job %d %s %s): %v\n", r.j.id, r.j.path, r.j.doc, r.verdict)
			}
		default:
			wrong++
			if wrong <= 5 {
				fmt.Fprintf(os.Stderr, "cqbench: WRONG answer (job %d %s %s): %v\n", r.j.id, r.j.path, r.j.doc, r.verdict)
			}
		}
	}
	return wrong, failedN
}

// statusCheck classifies transport errors and unexpected status codes as
// failed requests.
func statusCheck(r *record) error {
	if r.verdict != nil {
		return r.verdict // transport error
	}
	want := int32(http.StatusOK)
	switch r.j.method {
	case "DELETE":
		want = http.StatusNoContent
	case "PUT":
		if r.status == http.StatusCreated {
			return nil
		}
	}
	if r.status != want {
		return failed("status %d", r.status)
	}
	return nil
}

// report prints every metric with its unit and the coverage self-report.
func report(w io.Writer, b *bench, res *result, m map[string]float64, failedN, wrong, nReads, nWrites int, before, after map[string]float64, all []record) {
	fmt.Fprintf(w, "cqbench %s seed %d: %d attempted, %d failed, %d wrong, fail_ratio %.6f (%d reads, %d writes)\n",
		b.workload, b.seed, res.Attempted, failedN, wrong, ratio(float64(res.Failed), float64(res.Attempted)), nReads, nWrites)
	for _, e := range append(e2eMetrics, extraMetrics...) {
		fmt.Fprintf(w, "  %-16s %14.4f %s\n", e.name, m[e.name], e.unit)
	}
	hits := counterDelta(before, after, "cqtrees_cache_hits_total")
	misses := counterDelta(before, after, "cqtrees_cache_misses_total")
	var ndjson, pages, jsonReads int
	for _, r := range all {
		switch {
		case !r.measured || r.j.isWrite():
		case r.j.ndjson:
			ndjson++
		case r.j.pages > 0:
			pages++
		default:
			jsonReads++
		}
	}
	cached := int(counterDelta(before, after, "cqtrees_eval_seconds_count", `outcome="cached"`))
	fmt.Fprintf(w, "  coverage: evals acyclic=%.0f xproperty=%.0f backtrack=%.0f; cache.hit_ratio=%.4f; paths buffered=%d cached=%d ndjson=%d paginated=%d; hydrations=%.0f\n",
		counterDelta(before, after, "cqtrees_evals_total", `strategy="acyclic"`),
		counterDelta(before, after, "cqtrees_evals_total", `strategy="xproperty"`),
		counterDelta(before, after, "cqtrees_evals_total", `strategy="backtrack"`),
		ratio(hits, hits+misses), jsonReads-cached, cached, ndjson, pages,
		counterDelta(before, after, "cqtrees_corpus_hydrations_total"))
}
