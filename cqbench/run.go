package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"hash/maphash"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	cqtrees "repro"
	"repro/internal/serve"
)

// serverConfig is the one configuration every workload runs: a corpus
// budget that holds the analytic and hot-cache corpora but not the
// cold-fleet and ingest-churn one, and the result cache on with a 64 KiB
// entry cap (about 1.6k pairs). Without the cap, a capped tuples request
// still enumerates up to a 4 MiB relation to cache it, and the few such
// requests a seed happens to draw decided analytic's throughput. The
// 4 MiB cache holds hot-cache's working set (under 2 MiB) and fills
// within analytic's warm-up: a larger one kept filling with analytic's
// never-repeated results through the whole run, and the heap grew with
// it. Only cold-fleet and ingest-churn set a data directory; fsync stays
// on, the production default.
func serverConfig(dataDir string) serve.Config {
	return serve.Config{
		MaxCorpusBytes: 32 << 20,
		CacheBytes:     4 << 20,
		CacheMaxEntry:  64 << 10,
		DataDir:        dataDir,
	}
}

// bench is one workload's generated inputs and the server under test.
type bench struct {
	workload string
	seed     int64
	docs     []docSpec
	queries  []*query  // registered at set-up
	streams  []*stream // one shared; ingest-churn: writer, reader
	// persisted: the corpus is snapshot-backed, and set-up ends with a
	// restart that recovers it from the data directory.
	persisted bool
	// mkStreams makes the workload's streams from the seed; the jobs a run
	// took are found again by making them afresh.
	mkStreams func() []*stream
	exp       *expecter
	warmup    time.Duration
	setups    int // default set-up repetitions
	clients   int // closed-loop callers, one connection each
	// writeEvery paces the ingest-churn writer: it starts a write at most
	// this often, so the write rate, and with it the invalidation and
	// hydration load on the reader, is the same in every run.
	writeEvery time.Duration
	workDir    string // data directories live here
	dataDir    string // current server's data directory ("" = memory only)

	srv    *serve.Server
	ts     *httptest.Server
	tr     *http.Transport
	client *http.Client
	trace  *tracer // nil in untraced runs

	hashSeed maphash.Seed
	regPQ    map[string]*cqtrees.PreparedQuery
}

func newBench(workload string, seed int64, workDir string) (*bench, error) {
	b := &bench{workload: workload, seed: seed, workDir: workDir, hashSeed: maphash.MakeSeed(),
		regPQ: map[string]*cqtrees.PreparedQuery{}, clients: 2}
	switch workload {
	case "analytic":
		b.docs = analyticDocs()
		b.mkStreams = func() []*stream { return []*stream{analyticStream(seed, b.docs)} }
		b.warmup = 5 * time.Second // the result cache fills
		b.setups = 10
	case "hot-cache":
		b.docs = hotDocSpecs()
		b.queries = registered("q", hotQueries)
		b.mkStreams = func() []*stream { return []*stream{hotStream(seed, b.queries, b.docs)} }
		b.warmup = 2 * time.Second
		b.setups = 10
	case "cold-fleet":
		b.docs = ingestDocSpecs()
		b.queries = registered("r", ingestQueries)
		b.mkStreams = func() []*stream { return []*stream{ingestReader(seed, b.queries)} }
		b.persisted = true
		// One caller, so the order of the reads, and with it which
		// documents are resident when a read starts, follows from the
		// seed alone.
		b.clients = 1
		b.warmup = 2 * time.Second
		b.setups = 5
	case "ingest-churn":
		b.docs = ingestDocSpecs()
		b.queries = registered("r", ingestQueries)
		b.mkStreams = func() []*stream { return []*stream{ingestWriter(seed, b.docs), ingestReader(seed, b.queries)} }
		b.persisted = true
		b.warmup = 500 * time.Millisecond
		b.writeEvery = 100 * time.Millisecond
		b.setups = 5
	default:
		return nil, fmt.Errorf("unknown workload %q (analytic, hot-cache, cold-fleet, ingest-churn)", workload)
	}
	b.streams = b.mkStreams()
	for _, q := range b.queries {
		b.regPQ[q.name] = cqtrees.MustCompile(q.src)
	}
	b.exp = newExpecter(b.docs)
	return b, nil
}

// streamFor returns the index of the stream client c draws from.
func (b *bench) streamFor(c int) int { return c % len(b.streams) }

// takenJobs makes the streams afresh and returns, for each, the jobs the
// run took from it, by position.
func (b *bench) takenJobs() [][]*job {
	jobs := make([][]*job, len(b.streams))
	for i, s := range b.mkStreams() {
		for range b.streams[i].next {
			j, _ := s.take()
			jobs[i] = append(jobs[i], j)
		}
	}
	return jobs
}

func (b *bench) close() {
	if b.ts != nil {
		b.ts.Close()
		b.ts = nil
	}
	if b.tr != nil {
		b.tr.CloseIdleConnections()
	}
}

// start serves a fresh server built from the current data directory.
func (b *bench) start() error {
	srv, err := serve.New(serverConfig(b.dataDir))
	if err != nil {
		return err
	}
	b.srv = srv
	var h http.Handler = srv.Handler()
	if b.trace != nil {
		h = b.trace.wrap(h)
	}
	b.ts = httptest.NewServer(h)
	b.tr = &http.Transport{MaxConnsPerHost: b.clients, MaxIdleConnsPerHost: b.clients, DisableCompression: true}
	b.client = &http.Client{Transport: b.tr, Timeout: 60 * time.Second}
	return nil
}

// setup builds the server and loads the corpus through the HTTP API, once;
// it returns the time until the first request can be sent and the upload
// records. On a persisted corpus it ends with a restart that recovers
// the corpus from the snapshot directory.
func (b *bench) setup(rep int) (time.Duration, []record, error) {
	b.close()
	if b.persisted {
		b.dataDir = filepath.Join(b.workDir, fmt.Sprintf("data-%d", rep))
		if err := os.RemoveAll(b.dataDir); err != nil {
			return 0, nil, err
		}
	}
	t0 := time.Now()
	if err := b.start(); err != nil {
		return 0, nil, err
	}
	var recs []record
	for i, d := range b.docs {
		j := putJob(d, 0)
		j.id = -1 - i
		r := b.do(j, j.payload(), nil)
		if r.verdict != nil || (r.status != http.StatusCreated && r.status != http.StatusOK) {
			return 0, nil, fmt.Errorf("upload %s: status %d %v", d.name, r.status, r.verdict)
		}
		recs = append(recs, r)
	}
	if b.dataDir != "" {
		b.close()
		if err := b.start(); err != nil {
			return 0, nil, err
		}
	}
	for _, q := range b.queries {
		j := &job{method: "PUT", path: "/queries/" + q.name, body: mustJSON(map[string]string{"query": q.src})}
		r := b.do(j, j.payload(), nil)
		if r.verdict != nil || (r.status != http.StatusCreated && r.status != http.StatusOK) {
			return 0, nil, fmt.Errorf("register %s: status %d %v", q.name, r.status, r.verdict)
		}
	}
	return time.Since(t0), recs, nil
}

// record is one HTTP exchange.
type record struct {
	j          *job
	start, end time.Time
	body       []byte
	hash       uint64 // of body
	status     int32
	measured   bool
	verdict    error // nil: correct; set early for a transport error
}

func (r *record) latency() time.Duration { return r.end.Sub(r.start) }

// do sends one request of job j and reads the whole reply.
func (b *bench) do(j *job, body []byte, hdr http.Header) record {
	rec := record{j: j}
	req, err := http.NewRequestWithContext(context.Background(), j.method, b.ts.URL+j.path, bytes.NewReader(body))
	if err != nil {
		rec.verdict = failed("request: %v", err)
		return rec
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	if j.ndjson {
		req.Header.Set("Accept", "application/x-ndjson")
	}
	rec.start = time.Now()
	var reply []byte
	resp, err := b.client.Do(req)
	if err == nil {
		reply, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		rec.status = int32(resp.StatusCode)
	}
	rec.end = time.Now()
	if err != nil {
		rec.verdict = failed("transport: %v", err)
	}
	rec.body, rec.hash = reply, maphash.Bytes(b.hashSeed, reply)
	return rec
}

// runJob executes a job (a walk follows its cursors) and returns its
// records.
func (b *bench) runJob(j *job) []record {
	if j.pages == 0 {
		return []record{b.do(j, j.payload(), nil)}
	}
	var recs []record
	body := j.body
	for p := 0; p < j.pages; p++ {
		r := b.do(j, body, nil)
		recs = append(recs, r)
		cursor := nextCursor(r.body)
		if r.verdict != nil || r.status != http.StatusOK || cursor == "" {
			break
		}
		body = j.pageBody(cursor)
	}
	return recs
}

// nextCursor pulls next_cursor out of a page without a full decode.
func nextCursor(body []byte) string {
	const key = `"next_cursor":"`
	i := bytes.Index(body, []byte(key))
	if i < 0 {
		return ""
	}
	rest := body[i+len(key):]
	k := bytes.IndexByte(rest, '"')
	if k < 0 {
		return ""
	}
	return string(rest[:k])
}

// loop runs the closed loop: b.clients callers, each taking the next job of
// its stream after its previous reply, until the deadline. Every exchange
// goes into the log.
func (b *bench) loop(deadline time.Time, measured bool, log *replyLog) {
	var wg sync.WaitGroup
	for c := 0; c < b.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			si := b.streamFor(c)
			for next := time.Now(); time.Now().Before(deadline); {
				j, seq := b.streams[si].take()
				if j.isWrite() && b.writeEvery > 0 {
					time.Sleep(time.Until(next))
					next = time.Now().Add(b.writeEvery)
				}
				for _, r := range b.runJob(j) {
					log.add(si, seq, r, measured)
				}
			}
		}()
	}
	wg.Wait()
}

// heapSampler samples the live heap: the bytes the last garbage
// collection found reachable. Unlike the heap's current size it does not
// swing with the collector's pacing.
type heapSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []heapSample
}

type heapSample struct {
	at    time.Time
	bytes uint64
}

func sampleHeap(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.samples = append(h.samples, heapSample{time.Now(), s[0].Value.Uint64()})
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) finish() []heapSample {
	close(h.stop)
	<-h.done
	return h.samples
}

// scrape reads the server's /metrics as a map from series to value.
func (b *bench) scrape() (map[string]float64, error) {
	rec := httptest.NewRecorder()
	b.srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	return parseMetrics(rec.Body.Bytes()), nil
}

func parseMetrics(text []byte) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// counterDelta sums after-before over every series whose key starts with
// prefix and contains each of the label matchers.
func counterDelta(before, after map[string]float64, prefix string, labels ...string) float64 {
	d := 0.0
	for k, v := range after {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		ok := true
		for _, l := range labels {
			ok = ok && strings.Contains(k, l)
		}
		if ok {
			d += v - before[k]
		}
	}
	return d
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
