package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	cqtrees "repro"
	"repro/internal/corpus"
	"repro/internal/cq"
	"repro/internal/tree"
)

// span is one timed call at a layer boundary. Spans of one request share
// Req; Parent is the enclosing span's ID (0 for a request's root).
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Req    int64              `json:"req"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) dur() float64 { return float64(s.End - s.Start) }

func (s *span) set(k string, v float64) {
	if s.Attrs == nil {
		s.Attrs = map[string]float64{}
	}
	s.Attrs[k] = v
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	origin time.Time
	ids    atomic.Int64
	mu     sync.Mutex
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) begin(name string, req int64, parent *span) *span {
	s := &span{ID: t.ids.Add(1), Req: req, Name: name}
	if parent != nil {
		s.Parent = parent.ID
	}
	s.Start = t.now()
	return s
}

func (t *tracer) end(s *span) {
	s.End = t.now()
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// measure times fn as a child span of parent and records the heap
// allocations made meanwhile.
func (t *tracer) measure(name string, parent *span, fn func(s *span)) *span {
	s := &span{ID: t.ids.Add(1), Req: parent.Req, Parent: parent.ID, Name: name, Attrs: map[string]float64{}}
	m0 := mallocs()
	s.Start = t.now()
	fn(s)
	s.End = t.now()
	s.Attrs["allocs"] = float64(mallocs() - m0)
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

const (
	hdrReq    = "X-Bench-Req"
	hdrParent = "X-Bench-Parent"
)

// countingWriter counts reply bytes and keeps the NDJSON path's Flusher.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += n
	return n, err
}

func (w *countingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// wrap times Server.Handler().ServeHTTP for traced requests, on the
// server side of the socket.
func (t *tracer) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err1 := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
		parent, err2 := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		if err1 != nil || err2 != nil {
			h.ServeHTTP(w, r)
			return
		}
		s := &span{ID: t.ids.Add(1), Req: req, Parent: parent, Name: "serve.handler", Attrs: map[string]float64{}}
		cw := &countingWriter{ResponseWriter: w}
		m0 := mallocs()
		s.Start = t.now()
		h.ServeHTTP(cw, r)
		s.End = t.now()
		s.Attrs["allocs"] = float64(mallocs() - m0)
		s.Attrs["bytes"] = float64(cw.n)
		t.mu.Lock()
		t.spans = append(t.spans, s)
		t.mu.Unlock()
	})
}

// tracedJob replays one job serially. For each request it sends the
// request with the handler timed inside the server, attaches the server
// counter deltas scraped from /metrics, and calls the layers' public
// functions on the same inputs, each in its own span: before the request
// for uploads (parse, index, snapshot), after it for /eval, so the
// handler meets the corpus and cache as the request stream left them.
func (b *bench) tracedJob(j *job) []record {
	if j.method != "POST" {
		root := b.trace.begin("request", 0, nil)
		root.Req = root.ID
		root.set("write", 1)
		if j.xml != nil {
			b.decomposePut(root, j)
		}
		r := b.tracedRoundTrip(root, j, j.payload())
		b.trace.end(root)
		return []record{r}
	}
	var recs []record
	body, cursor := j.body, ""
	for p := 0; p == 0 || p < j.pages; p++ {
		root := b.trace.begin("request", 0, nil)
		root.Req = root.ID
		r := b.tracedRoundTrip(root, j, body)
		b.decomposeEval(root, j, cursor)
		b.trace.end(root)
		recs = append(recs, r)
		if j.pages == 0 {
			break
		}
		cursor = nextCursor(r.body)
		if r.verdict != nil || r.status != http.StatusOK || cursor == "" {
			break
		}
		body = j.pageBody(cursor)
	}
	return recs
}

func (b *bench) tracedRoundTrip(root *span, j *job, body []byte) record {
	before, err1 := b.scrape()
	rt := b.trace.begin("http.roundtrip", root.Req, root)
	hdr := http.Header{hdrReq: {strconv.FormatInt(root.Req, 10)}, hdrParent: {strconv.FormatInt(rt.ID, 10)}}
	r := b.do(j, body, hdr)
	b.trace.end(rt)
	after, err2 := b.scrape()
	if err1 == nil && err2 == nil {
		for k, v := range map[string]float64{
			"hits":            counterDelta(before, after, "cqtrees_cache_hits_total"),
			"misses":          counterDelta(before, after, "cqtrees_cache_misses_total"),
			"evictions":       counterDelta(before, after, "cqtrees_cache_evictions_total"),
			"too_large":       counterDelta(before, after, "cqtrees_cache_too_large_total"),
			"rejected":        counterDelta(before, after, "cqtrees_admission_rejected_total"),
			"hydrations":      counterDelta(before, after, "cqtrees_corpus_hydrations_total"),
			"evals_acyclic":   counterDelta(before, after, "cqtrees_evals_total", `strategy="acyclic"`),
			"evals_xproperty": counterDelta(before, after, "cqtrees_evals_total", `strategy="xproperty"`),
			"evals_backtrack": counterDelta(before, after, "cqtrees_evals_total", `strategy="backtrack"`),
		} {
			root.set(k, v)
		}
	}
	if j.ndjson {
		root.set("ndjson", 1)
	}
	if j.pages > 0 {
		root.set("paginated", 1)
	}
	return r
}

// decomposePut times the document layers on an uploaded document:
// tree.ParseXML, cqtrees.Index, SaveDocumentFile with fsync, and
// LoadDocumentFile.
func (b *bench) decomposePut(root *span, j *job) {
	var t *tree.Tree
	b.trace.measure("tree.parse", root, func(s *span) {
		t, _ = tree.ParseXML(bytes.NewReader(j.xml))
		if t != nil {
			s.set("nodes", float64(t.Len()))
		}
	})
	if t == nil {
		return
	}
	n := float64(t.Len())
	var doc *cqtrees.Document
	b.trace.measure("consistency.index", root, func(s *span) {
		doc = cqtrees.Index(t)
		s.set("nodes", n)
	})
	path := filepath.Join(b.workDir, "trace-snapshot.cqs")
	b.trace.measure("snapshot.save", root, func(s *span) {
		s.set("nodes", n)
		if err := cqtrees.SaveDocumentFile(path, doc); err != nil {
			return
		}
		if f, err := os.OpenFile(path, os.O_RDWR, 0); err == nil {
			_ = f.Sync() // the measured cost includes the fsync
			f.Close()
		}
	})
	b.trace.measure("snapshot.load", root, func(s *span) {
		s.set("nodes", n)
		_, _ = cqtrees.LoadDocumentFile(path)
	})
	if b.dataDir != "" {
		root.set("persist", 1)
	}
}

// decomposeEval times the query and engine layers on the inputs of one
// /eval request: cq.Parse and Prepare for ad-hoc sources, then per
// document Corpus.GetErr, the engine calls the handler makes for the
// request (core.mirror, with the request's own cap, order and cursor),
// and, for the per-layer metrics, BoolErr, a Tuples stream and AllErr.
func (b *bench) decomposeEval(root *span, j *job, cursor string) {
	pq := b.regPQ[j.q.name]
	if j.q.name == "" {
		var q *cq.Query
		b.trace.measure("cq.parse", root, func(*span) { q, _ = cq.Parse(j.q.wire) })
		if q == nil {
			return
		}
		b.trace.measure("core.prepare", root, func(*span) { pq, _ = cqtrees.Prepare(q) })
		if pq == nil {
			return
		}
	}
	docs := []string{j.doc}
	if j.doc == "" {
		docs = b.srv.Corpus().Names()
	}
	root.set("rows", float64(len(docs)))
	for _, name := range docs {
		doc := b.tracedGet(root, name)
		if doc == nil {
			continue
		}
		opts := b.pageOpts(j, name, cursor)
		b.trace.measure("core.mirror", root, func(*span) { b.mirror(pq, doc, j, opts) })
		b.trace.measure("core.reduce", root, func(*span) { _, _ = pq.BoolErr(doc) })
		if j.mode == "bool" {
			continue
		}
		b.trace.measure("core.enumerate", root, func(s *span) {
			n := 0
			for range pq.Tuples(doc, opts...) {
				if n == 0 {
					s.set("first_ns", float64(b.trace.now()-s.Start))
				}
				n++
			}
			s.set("answers", float64(n))
		})
		b.trace.measure("core.collect", root, func(s *span) {
			all, _ := pq.AllErr(doc, opts...)
			s.set("answers", float64(len(all)))
		})
	}
}

// mirror makes the library calls the handler makes for one document of
// the request: a page for a walk, the Tuples stream up to one past the
// cap for NDJSON, BoolErr or NodesErr, and for buffered tuples the
// Tuples stream up to the result cache's stopping point (past the cap
// while the relation still fits one cache entry). Sorting and encoding
// are left to the handler's share.
func (b *bench) mirror(pq *cqtrees.PreparedQuery, doc *cqtrees.Document, j *job, opts []cqtrees.EvalOption) {
	switch {
	case j.pages > 0:
		_, _ = pq.Paginate(doc, opts...)
	case j.mode == "bool":
		_, _ = pq.BoolErr(doc)
	case j.mode == "nodes":
		_, _ = pq.NodesErr(doc)
	case j.ndjson:
		n := 0
		for range pq.Tuples(doc) {
			if j.cap > 0 && n >= j.cap {
				break
			}
			n++
		}
	default:
		budget := serverConfig("").CacheMaxEntry
		n, bytes := 0, int64(64)
		for t := range pq.Tuples(doc) {
			n++
			if bytes += 32 + 4*int64(len(t)); bytes > budget && j.cap > 0 && n > j.cap {
				break
			}
		}
	}
}

// tracedGet times Corpus.GetErr for one document. A dehydrated document
// is hydrated in a throwaway corpus over a link to its snapshot file:
// hydrating it in the server's corpus would evict another document and
// add hydrations the handler never causes.
func (b *bench) tracedGet(root *span, name string) *cqtrees.Document {
	c := b.srv.Corpus()
	if doc, _, ok := c.Peek(name); !ok || doc == nil && b.dataDir != "" {
		tmp := filepath.Join(b.workDir, "hydrate")
		file := corpus.FileName(name)
		if os.MkdirAll(tmp, 0o755) != nil || os.Link(filepath.Join(b.dataDir, file), filepath.Join(tmp, file)) != nil {
			return nil
		}
		defer os.Remove(filepath.Join(tmp, file))
		c = cqtrees.NewCorpus()
		if _, err := c.LoadDir(tmp); err != nil {
			return nil
		}
	}
	var doc *cqtrees.Document
	b.trace.measure("corpus.get", root, func(s *span) {
		h0 := c.Hydrations()
		doc, _ = c.GetErr(name)
		s.set("hydrations", float64(c.Hydrations()-h0))
	})
	return doc
}

// pageOpts mirrors a walk page's options as Corpus.Page passes them:
// order and limit on the first page, the cursor afterwards, and the
// document's current version.
func (b *bench) pageOpts(j *job, doc, cursor string) []cqtrees.EvalOption {
	if j.pages == 0 {
		return nil
	}
	ver, _ := b.srv.Corpus().Version(doc)
	opts := []cqtrees.EvalOption{cqtrees.WithLimit(j.limit), cqtrees.WithDocVersion(ver)}
	if cursor == "" {
		dirs := make([]cqtrees.Dir, len(j.order))
		for i, o := range j.order {
			dirs[i], _ = cqtrees.ParseDir(o)
		}
		return append(opts, cqtrees.WithOrder(dirs...))
	}
	return append(opts, cqtrees.WithCursor(cursor))
}

// dumpSpans writes the spans as one JSON object per line.
func dumpSpans(path string, spans []*span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func loadSpans(path string) ([]*span, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []*span
	dec := json.NewDecoder(bytes.NewReader(data))
	for dec.More() {
		s := &span{}
		if err := dec.Decode(s); err != nil {
			return nil, err
		}
		spans = append(spans, s)
	}
	return spans, nil
}

// checkSpanTree reports the first violation of the span tree's shape:
// unique ids, one root per request id, parents of the same request, and
// children inside their parents' intervals.
func checkSpanTree(spans []*span) error {
	byID := map[int64]*span{}
	roots := map[int64]int{}
	for _, s := range spans {
		if byID[s.ID] != nil {
			return fmt.Errorf("duplicate span id %d", s.ID)
		}
		byID[s.ID] = s
		if s.End < s.Start {
			return fmt.Errorf("span %d ends before it starts", s.ID)
		}
		if s.Parent == 0 {
			if s.Req != s.ID {
				return fmt.Errorf("root span %d has request id %d", s.ID, s.Req)
			}
			roots[s.Req]++
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		p := byID[s.Parent]
		if p == nil {
			return fmt.Errorf("span %d (%s): parent %d missing", s.ID, s.Name, s.Parent)
		}
		if p.Req != s.Req {
			return fmt.Errorf("span %d (%s): request %d, parent's %d", s.ID, s.Name, s.Req, p.Req)
		}
		if s.Start < p.Start || s.End > p.End {
			return fmt.Errorf("span %d (%s) outside its parent %d (%s)", s.ID, s.Name, p.ID, p.Name)
		}
	}
	for req, n := range roots {
		if n != 1 {
			return fmt.Errorf("request %d has %d roots", req, n)
		}
	}
	return nil
}

// layerMetric is one per-layer metric as BENCHMARK.json lists it.
type layerMetric struct{ name, unit string }

var layerMetrics = []layerMetric{
	{"cq.parse_us", "us"},
	{"core.prepare_us", "us"},
	{"core.prepare_allocs", "count"},
	{"core.reduce_us", "us"},
	{"core.reduce_allocs", "count"},
	{"core.enumerate_us_per_answer", "us"},
	{"core.enumerate_allocs_per_answer", "count"},
	{"core.first_answer_us", "us"},
	{"core.collect_us_per_answer", "us"},
	{"core.collect_allocs_per_answer", "count"},
	{"tree.parse_us_per_knode", "us"},
	{"tree.parse_allocs_per_node", "count"},
	{"consistency.index_build_us_per_knode", "us"},
	{"snapshot.save_us_per_knode", "us"},
	{"snapshot.load_us_per_knode", "us"},
	{"corpus.get_us", "us"},
	{"corpus.hydrations_per_req", "count"},
	{"cache.hit_ratio", "ratio"},
	{"cache.evictions_per_req", "count"},
	{"cache.too_large_per_req", "count"},
	{"serve.handler_us", "us"},
	{"serve.handler_allocs", "count"},
	{"serve.overhead_us", "us"},
	{"serve.response_bytes", "B"},
	{"serve.rejected_per_req", "count"},
	{"http.transport_us", "us"},
	{"trace.coverage", "ratio"},
	{"core.evals_acyclic", "count"},
	{"core.evals_xproperty", "count"},
	{"core.evals_backtrack", "count"},
	{"serve.path_buffered", "count"},
	{"serve.path_cached", "count"},
	{"serve.path_ndjson", "count"},
	{"serve.path_paginated", "count"},
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quantile interpolates the q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// computeLayerMetrics derives every per-layer metric from spans alone, so
// a dumped trace recomputes the reported figures. A layer that did not run
// reports 0.
func computeLayerMetrics(spans []*span) map[string]float64 {
	type sums struct {
		n, dur, allocs, work, first float64
		durs, firsts                []float64
	}
	by := map[string]*sums{}
	children := map[int64][]*span{}
	var roots []*span
	for _, s := range spans {
		if s.Parent == 0 {
			roots = append(roots, s)
			continue
		}
		children[s.Parent] = append(children[s.Parent], s)
		if s.Name == "serve.handler" {
			continue // aggregated per request below
		}
		a := by[s.Name]
		if a == nil {
			a = &sums{}
			by[s.Name] = a
		}
		a.n++
		a.dur += s.dur()
		a.durs = append(a.durs, s.dur()/1e3)
		a.allocs += s.Attrs["allocs"]
		a.work += s.Attrs["answers"] + s.Attrs["nodes"]
		if f, ok := s.Attrs["first_ns"]; ok {
			a.firsts = append(a.firsts, f/1e3)
		}
	}
	get := func(name string) *sums {
		if a := by[name]; a != nil {
			return a
		}
		return &sums{}
	}
	m := map[string]float64{}
	m["cq.parse_us"] = median(get("cq.parse").durs)
	m["core.prepare_us"] = median(get("core.prepare").durs)
	m["core.prepare_allocs"] = ratio(get("core.prepare").allocs, get("core.prepare").n)
	m["core.reduce_us"] = median(get("core.reduce").durs)
	m["core.reduce_allocs"] = ratio(get("core.reduce").allocs, get("core.reduce").n)
	en, co := get("core.enumerate"), get("core.collect")
	m["core.enumerate_us_per_answer"] = ratio(en.dur/1e3, en.work)
	m["core.enumerate_allocs_per_answer"] = ratio(en.allocs, en.work)
	m["core.first_answer_us"] = median(en.firsts)
	m["core.collect_us_per_answer"] = ratio((co.dur-en.dur)/1e3, co.work)
	m["core.collect_allocs_per_answer"] = ratio(co.allocs-en.allocs, co.work)
	tp := get("tree.parse")
	m["tree.parse_us_per_knode"] = ratio(tp.dur/1e3, tp.work/1e3)
	m["tree.parse_allocs_per_node"] = ratio(tp.allocs, tp.work)
	for _, l := range []struct{ metric, span string }{
		{"consistency.index_build_us_per_knode", "consistency.index"},
		{"snapshot.save_us_per_knode", "snapshot.save"},
		{"snapshot.load_us_per_knode", "snapshot.load"},
	} {
		a := get(l.span)
		m[l.metric] = ratio(a.dur/1e3, a.work/1e3)
	}
	// A mean, not a median: the hydrating lookups are the few slow ones.
	m["corpus.get_us"] = ratio(get("corpus.get").dur/1e3, get("corpus.get").n)

	// Per-request figures over /eval requests.
	var evals, hits, misses, evictions, tooLarge, rejected, hydrations, bytes, allocs float64
	var handlerUs, overheadUs, transportUs []float64
	var covered, handled float64
	for _, r := range roots {
		var handler, roundtrip *span
		var parse, prepare, engineSum float64
		for _, c := range children[r.ID] {
			switch c.Name {
			case "http.roundtrip":
				roundtrip = c
				for _, h := range children[c.ID] {
					if h.Name == "serve.handler" {
						handler = h
					}
				}
			case "cq.parse":
				parse += c.dur()
			case "core.prepare":
				prepare += c.dur()
			case "corpus.get", "core.mirror", "tree.parse", "consistency.index":
				engineSum += c.dur()
			case "snapshot.save":
				if r.Attrs["persist"] == 1 {
					engineSum += c.dur()
				}
			}
		}
		if handler == nil || roundtrip == nil {
			continue
		}
		// The server ran the engine for evals of the rows it answered;
		// hits were served from the cache.
		evaluated := r.Attrs["evals_acyclic"] + r.Attrs["evals_xproperty"] + r.Attrs["evals_backtrack"]
		attributed := parse + prepare
		if r.Attrs["write"] == 1 {
			attributed = engineSum
		} else if rows := r.Attrs["rows"]; rows > 0 {
			attributed += min(1, evaluated/rows) * engineSum
		}
		covered += attributed
		handled += handler.dur()
		if r.Attrs["write"] == 1 {
			continue
		}
		evals++
		hits += r.Attrs["hits"]
		misses += r.Attrs["misses"]
		evictions += r.Attrs["evictions"]
		tooLarge += r.Attrs["too_large"]
		rejected += r.Attrs["rejected"]
		hydrations += r.Attrs["hydrations"]
		bytes += handler.Attrs["bytes"]
		allocs += handler.Attrs["allocs"]
		handlerUs = append(handlerUs, handler.dur()/1e3)
		overheadUs = append(overheadUs, (handler.dur()-attributed)/1e3)
		transportUs = append(transportUs, (roundtrip.dur()-handler.dur())/1e3)
		m["core.evals_acyclic"] += r.Attrs["evals_acyclic"]
		m["core.evals_xproperty"] += r.Attrs["evals_xproperty"]
		m["core.evals_backtrack"] += r.Attrs["evals_backtrack"]
		switch {
		case r.Attrs["ndjson"] == 1:
			m["serve.path_ndjson"]++
		case r.Attrs["paginated"] == 1:
			m["serve.path_paginated"]++
		case r.Attrs["misses"] == 0 && r.Attrs["hits"] > 0:
			m["serve.path_cached"]++
		default:
			m["serve.path_buffered"]++
		}
	}
	m["corpus.hydrations_per_req"] = ratio(hydrations, evals)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_req"] = ratio(evictions, evals)
	m["cache.too_large_per_req"] = ratio(tooLarge, evals)
	m["serve.handler_us"] = median(handlerUs)
	m["serve.handler_allocs"] = ratio(allocs, evals)
	m["serve.overhead_us"] = median(overheadUs)
	m["serve.response_bytes"] = ratio(bytes, evals)
	m["serve.rejected_per_req"] = ratio(rejected, evals)
	m["http.transport_us"] = median(transportUs)
	m["trace.coverage"] = ratio(covered, handled)
	return m
}
