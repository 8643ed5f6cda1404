package serve

import (
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	cqtrees "repro"
	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/metrics"
)

// serveMetrics is the server's instrument set, all registered on one
// Registry exposed at GET /metrics. Gauges that mirror state owned
// elsewhere (gate depth, corpus size, cache occupancy) are *Func metrics
// read at scrape time, so there is no double bookkeeping to drift; only
// genuinely event-shaped series (request counts, latencies, per-document
// evaluations, admission rejections) are updated on the request path.
type serveMetrics struct {
	registry *metrics.Registry

	// httpRequests counts every HTTP request by route, method, and
	// status code. The route label is the coarse route family (see
	// routeLabel), not the raw path — bounded cardinality by design.
	httpRequests *metrics.CounterVec

	// evalSeconds is the /eval latency histogram by plan strategy and
	// outcome ("ok", "timeout", "failed", or "cached" when at least one
	// document was served from the result cache and none needed the
	// engine).
	// Admission wait is included — it is part of the latency a client
	// observes.
	evalSeconds *metrics.HistogramVec

	// evalsTotal counts per-document engine evaluations by strategy.
	// Cache hits do NOT move it — that is the observable contract the
	// warm-path tests assert.
	evalsTotal *metrics.CounterVec

	// rejected counts /eval admission rejections by reason
	// ("queue_full", "queue_wait", "shutdown").
	rejected *metrics.CounterVec
}

func newServeMetrics(s *Server) *serveMetrics {
	r := metrics.NewRegistry()
	m := &serveMetrics{
		registry: r,
		httpRequests: r.NewCounterVec("cqtrees_http_requests_total",
			"HTTP requests served, by route family, method, and status code.",
			"route", "method", "code"),
		evalSeconds: r.NewHistogramVec("cqtrees_eval_seconds",
			"End-to-end /eval latency in seconds (admission wait included), by plan strategy and outcome.",
			metrics.DefBuckets, "strategy", "outcome"),
		evalsTotal: r.NewCounterVec("cqtrees_evals_total",
			"Per-document engine evaluations, by plan strategy. Cache hits do not count.",
			"strategy"),
		rejected: r.NewCounterVec("cqtrees_admission_rejected_total",
			"Eval requests rejected by admission control, by reason.",
			"reason"),
	}
	r.NewGaugeVec("cqtrees_build_info",
		"Build information; the value is always 1.",
		"go_version").With(runtime.Version()).Set(1)

	// Admission gate depth, read live at scrape time.
	r.NewGaugeFunc("cqtrees_admission_in_flight",
		"Eval requests currently holding an admission slot.",
		func() float64 { return float64(s.gate.InFlight()) })
	r.NewGaugeFunc("cqtrees_admission_queue_depth",
		"Eval requests waiting for an admission slot.",
		func() float64 { return float64(s.gate.Queued()) })

	// Corpus occupancy and hydration churn.
	r.NewGaugeFunc("cqtrees_corpus_docs",
		"Documents in the corpus (resident and dehydrated).",
		func() float64 { return float64(s.corpus.Len()) })
	r.NewGaugeFunc("cqtrees_corpus_bytes",
		"Accounted resident byte footprint of the corpus.",
		func() float64 { return float64(s.corpus.Bytes()) })
	r.NewCounterFunc("cqtrees_corpus_hydrations_total",
		"Documents hydrated back from snapshot stubs on demand.",
		func() float64 { return float64(s.corpus.Hydrations()) })

	// Persistence fault counters and fault-state gauges; all read from one
	// PersistenceStats snapshot per series, live at scrape time.
	persistStat := func(pick func(cqtrees.CorpusPersistence) int64) func() float64 {
		return func() float64 { return float64(pick(s.corpus.Persistence())) }
	}
	r.NewCounterFunc("cqtrees_corpus_hydration_errors_total",
		"Snapshot hydration attempts that failed (transient and permanent).",
		persistStat(func(p cqtrees.CorpusPersistence) int64 { return p.HydrationErrors }))
	r.NewCounterFunc("cqtrees_corpus_quarantines_total",
		"Snapshot files quarantined after failing format validation.",
		persistStat(func(p cqtrees.CorpusPersistence) int64 { return p.Quarantines }))
	r.NewCounterFunc("cqtrees_corpus_persist_errors_total",
		"PersistDoc calls that failed before the snapshot became durable.",
		persistStat(func(p cqtrees.CorpusPersistence) int64 { return p.PersistErrors }))
	r.NewGaugeFunc("cqtrees_corpus_stubs",
		"Dehydrated documents currently backed only by their snapshot file.",
		persistStat(func(p cqtrees.CorpusPersistence) int64 { return int64(p.Stubs) }))
	r.NewGaugeFunc("cqtrees_corpus_failed_docs",
		"Dehydrated documents whose last hydration failed and are in retry backoff.",
		persistStat(func(p cqtrees.CorpusPersistence) int64 { return int64(p.Failed) }))
	r.NewGaugeFunc("cqtrees_corpus_quarantined_docs",
		"Documents whose snapshot file is quarantined and cannot be served.",
		persistStat(func(p cqtrees.CorpusPersistence) int64 { return int64(p.Quarantined) }))

	// Result cache counters; all read from one Stats snapshot per series.
	// On the nil (disabled) cache every series reads zero.
	cacheStat := func(pick func(cache.Stats) int64) func() float64 {
		return func() float64 { return float64(pick(s.cache.Stats())) }
	}
	r.NewCounterFunc("cqtrees_cache_hits_total",
		"Result cache hits.",
		cacheStat(func(st cache.Stats) int64 { return st.Hits }))
	r.NewCounterFunc("cqtrees_cache_misses_total",
		"Result cache misses.",
		cacheStat(func(st cache.Stats) int64 { return st.Misses }))
	r.NewCounterFunc("cqtrees_cache_evictions_total",
		"Result cache entries evicted by the byte budget.",
		cacheStat(func(st cache.Stats) int64 { return st.Evictions }))
	r.NewCounterFunc("cqtrees_cache_invalidations_total",
		"Result cache entries dropped by document invalidation.",
		cacheStat(func(st cache.Stats) int64 { return st.Invalidations }))
	r.NewCounterFunc("cqtrees_cache_collapsed_total",
		"Concurrent cache misses collapsed onto another caller's computation.",
		cacheStat(func(st cache.Stats) int64 { return st.Collapsed }))
	r.NewCounterFunc("cqtrees_cache_too_large_total",
		"Results rejected by the per-entry cache byte cap.",
		cacheStat(func(st cache.Stats) int64 { return st.TooLarge }))
	r.NewGaugeFunc("cqtrees_cache_entries",
		"Result cache entries resident.",
		cacheStat(func(st cache.Stats) int64 { return st.Entries }))
	r.NewGaugeFunc("cqtrees_cache_bytes",
		"Result cache resident bytes.",
		cacheStat(func(st cache.Stats) int64 { return st.Bytes }))
	return m
}

// observeEval records one /eval request's latency under its strategy and
// outcome.
func (m *serveMetrics) observeEval(start time.Time, pq *cqtrees.PreparedQuery, outcome string) {
	m.evalSeconds.With(strategySlug(pq.Plan()), outcome).Observe(time.Since(start).Seconds())
}

// strategySlug is the metric-label form of a plan's strategy — short and
// stable, unlike Strategy.String()'s human-facing text.
func strategySlug(p cqtrees.Plan) string {
	switch p.Strategy {
	case core.StrategyAcyclic:
		return "acyclic"
	case core.StrategyXProperty:
		return "xproperty"
	default:
		return "backtrack"
	}
}

// routeLabel folds a request path onto its route family so the request
// counter's label set stays bounded no matter what paths clients probe.
func routeLabel(path string) string {
	switch {
	case path == "/healthz":
		return "/healthz"
	case path == "/metrics":
		return "/metrics"
	case path == "/eval":
		return "/eval"
	case path == "/docs" || strings.HasPrefix(path, "/docs/"):
		return "/docs"
	case path == "/queries" || strings.HasPrefix(path, "/queries/"):
		return "/queries"
	default:
		return "other"
	}
}

// codeRecorder captures the response status code for the request counter,
// forwarding Flush so the NDJSON streaming path keeps working through it.
type codeRecorder struct {
	http.ResponseWriter
	code int
}

func (w *codeRecorder) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *codeRecorder) Write(b []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *codeRecorder) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// withMetrics counts every request into the httpRequests counter. It sits
// outside the recovery middleware so panics converted to 500s are counted
// with the code the client actually received.
func (m *serveMetrics) withMetrics(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &codeRecorder{ResponseWriter: w}
		defer func() {
			code := rec.code
			if code == 0 {
				code = http.StatusOK
			}
			m.httpRequests.With(routeLabel(r.URL.Path), r.Method, strconv.Itoa(code)).Inc()
		}()
		next.ServeHTTP(rec, r)
	})
}
