package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"time"

	cqtrees "repro"
	"repro/internal/cache"
	"repro/internal/corpus"
)

// The buffered /eval path: every JSON (non-NDJSON, non-paginated)
// evaluation runs here, with the result cache in front of the admission
// gate. A server without a cache (-cache-bytes 0) runs the same code with
// a nil *cache.Cache, on which every lookup misses and nothing is stored.
//
//   - Lookups happen BEFORE admission: a request whose every document hits
//     the cache is answered without ever taking (or waiting for) a gate
//     slot — the whole point of caching is that repeated work must not
//     compete with real work for evaluation capacity.
//   - Misses are evaluated per document through cache.Do on the
//     corpus.Run worker pool, so concurrent requests for the same (query,
//     document, version) collapse onto one engine evaluation, and the
//     result is stored for the next request.
//   - Keys carry the document's corpus version (see Corpus.Version): a
//     swapped or re-added document gets a new version, so a stale entry
//     can never match a post-swap lookup. The corpus invalidation hook
//     additionally drops the dead entries eagerly.
//
// The NDJSON streaming path never touches the cache: streaming exists for
// relations too large to materialize, which are exactly the results the
// per-entry byte cap refuses to cache.

// cachedRelation is the cached value for mode "tuples": the sorted answer
// relation, with complete=false when enumeration stopped early because
// the relation outgrew the per-entry cache budget (such values are never
// stored — see computeDoc — but are still served to the waiting callers).
type cachedRelation struct {
	tuples   [][]cqtrees.NodeID
	complete bool
}

// evalCached answers a buffered /eval batch: one row per document, sorted
// by name, 504 when the deadline cut work short, and the persistence
// escalation when every row failed in the snapshot layer.
func (s *Server) evalCached(ctx context.Context, w http.ResponseWriter, r *http.Request,
	req evalRequest, pq *cqtrees.PreparedQuery, mode string, start time.Time) {
	fp := pq.Query().Fingerprint()
	// The document list is frozen up front (an unrestricted request takes
	// the current fleet): batch completeness is then decidable — a timed
	// out batch may never dispatch some documents, and those produce no
	// result rows at all.
	explicit := len(req.Docs) > 0
	docs := req.Docs
	if !explicit {
		docs = s.corpus.Names()
	}
	expected := len(docs)
	capN := s.answerCap(req.MaxAnswers)

	resp := evalResponse{Mode: mode, Plan: pq.Plan().String(), Results: make([]evalResult, 0, len(docs))}
	cancelledRows := 0
	var tally hydraTally
	add := func(doc string, err error, v any) {
		// An implicit fleet selection can race a concurrent Remove or
		// LRU eviction between Names() and evaluation; the client never
		// asked for that document by name, so its disappearance is not an
		// error row.
		if err != nil && !explicit && errors.Is(err, cqtrees.ErrUnknownDocument) {
			expected--
			return
		}
		row := evalResult{Doc: doc}
		if err != nil {
			row.Error = err.Error()
			resp.Errors++
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				cancelledRows++
			}
			reason, retryAfter := reasonOf(err)
			row.Reason = reason
			tally.count(reason, retryAfter)
		} else {
			renderCached(&row, mode, v, capN)
			if row.Truncated {
				resp.Truncated++
			}
		}
		resp.Results = append(resp.Results, row)
	}

	// Pass 1 — pure lookups, no admission. Version is read before the
	// lookup; a Swap racing past between the two just yields a miss.
	type miss struct {
		name string
		ver  uint64
	}
	var misses []miss
	hits := 0
	for _, name := range docs {
		ver, ok := s.corpus.Version(name)
		if !ok {
			add(name, missingDocErr(name), nil)
			continue
		}
		if v, ok := s.cache.Get(cache.Key{Query: fp, Doc: name, Version: ver, Mode: mode}); ok {
			hits++
			add(name, nil, v)
			continue
		}
		misses = append(misses, miss{name, ver})
	}

	// Pass 2 — only misses pay for admission and evaluation. The pool
	// stops dispatching once the deadline fires, so misses not yet started
	// never hydrate their document.
	if len(misses) > 0 {
		release, err := s.gate.Acquire(ctx)
		if err != nil {
			s.admissionReject(w, err)
			return
		}
		defer release()
		if s.hook != nil {
			s.hook(r)
		}
		results := corpus.Run(ctx, req.Workers, misses, func(ctx context.Context, m miss) (any, error) {
			k := cache.Key{Query: fp, Doc: m.name, Version: m.ver, Mode: mode}
			return s.cache.Do(ctx, k, func() (any, int64, error) {
				return s.computeDoc(ctx, pq, mode, m.name, capN)
			})
		})
		// Collected before add runs: called from a range-over-func body,
		// add would escape to the heap with all the row state it shares,
		// costing every request — all-hit ones included — four allocations.
		for _, res := range slices.AppendSeq(make([]corpus.Result[miss, any], 0, len(misses)), results) {
			add(res.Job.name, res.Err, res.Value)
		}
	}

	resp.Docs = len(resp.Results)
	sort.Slice(resp.Results, func(i, j int) bool { return resp.Results[i].Doc < resp.Results[j].Doc })

	// 504 only when the deadline actually cut work short: some row carried
	// a cancellation error, or some frozen-list document never produced a
	// row. A batch that completed just before the deadline fired is a 200.
	if errors.Is(ctx.Err(), context.DeadlineExceeded) &&
		(cancelledRows > 0 || resp.Docs < expected) {
		resp.TimedOut = true
		s.metrics.observeEval(start, pq, "timeout")
		writeJSON(w, http.StatusGatewayTimeout, resp)
		return
	}
	// Persistence escalation: when every row failed and the persistence
	// layer was involved, the batch as a whole is undeliverable — 503 +
	// Retry-After (transient, retry here later) or 404 (everything asked
	// for is quarantined; retrying cannot help).
	if status := tally.status(w, resp.Docs, resp.Errors); status != http.StatusOK {
		s.metrics.observeEval(start, pq, "failed")
		writeJSON(w, status, resp)
		return
	}
	out := "ok"
	if hits > 0 && len(misses) == 0 {
		out = "cached" // served from the cache, never ran the engine
	}
	s.metrics.observeEval(start, pq, out)
	writeJSON(w, http.StatusOK, resp)
}

// missingDocErr is the per-row error for a document the corpus does not
// hold, matching Corpus.GetErr's.
func missingDocErr(name string) error {
	return fmt.Errorf("corpus: %q: %w", name, cqtrees.ErrUnknownDocument)
}

// computeDoc evaluates pq on one document — the compute function behind
// cache.Do. It returns (value, size, error) where size is the value's
// approximate resident footprint; Put rejects sizes over the per-entry
// cap, so a deliberately inflated size is how a value opts out of
// caching.
//
// For mode "tuples" the cached value must be the COMPLETE relation —
// cached entries serve every future answer cap, so a capped prefix would
// poison larger requests. A capped request therefore enumerates up to
// max(cap, tuples that fit the per-entry budget) + 1 answers: reaching
// that limit proves the relation both exceeds the cap (the one-past-cap
// truncation witness) and outgrows cacheability, so the remaining work
// could benefit no one.
func (s *Server) computeDoc(ctx context.Context, pq *cqtrees.PreparedQuery, mode, name string, capN int) (any, int64, error) {
	doc, err := s.corpus.GetErr(name)
	if err != nil {
		// Hydration failures keep their classification (quarantined vs
		// transient) so the row and status mapping can distinguish them
		// from a plain unknown document.
		return nil, 0, err
	}
	s.metrics.evalsTotal.With(strategySlug(pq.Plan())).Inc()
	switch mode {
	case "bool":
		v, err := pq.BoolErr(doc, cqtrees.WithContext(ctx))
		return v, 16, err
	case "nodes":
		v, err := pq.NodesErr(doc, cqtrees.WithContext(ctx))
		return v, 48 + 4*int64(len(v)), err
	default: // tuples
		budget := s.cache.MaxEntry()
		tupleBytes := 32 + 4*int64(len(pq.Query().Head))
		limit := 0
		if capN > 0 {
			limit = max(capN, int(max(budget-64, 0)/tupleBytes)) + 1
		}
		tuples, err := pq.AllErr(doc, cqtrees.WithContext(ctx), cqtrees.WithLimit(limit))
		if err != nil {
			return nil, 0, err
		}
		if limit > 0 && len(tuples) == limit {
			// Stopped at the limit: the relation is incomplete, and an
			// incomplete relation must never cache.
			return cachedRelation{tuples: tuples}, budget + 1, nil
		}
		return cachedRelation{tuples: tuples, complete: true}, 64 + tupleBytes*int64(len(tuples)), nil
	}
}

// renderCached projects a cached (or freshly computed) value onto one
// response row under the request's answer cap. Cached tuple relations are
// complete, so re-capping at render time serves any cap from one entry;
// an incomplete relation (never cached, but shared with singleflight
// followers) is truncated by construction.
func renderCached(row *evalResult, mode string, v any, capN int) {
	switch mode {
	case "bool":
		sat := v.(bool)
		row.Sat = &sat
	case "nodes":
		row.Nodes = v.([]cqtrees.NodeID)
	default: // tuples
		rel := v.(cachedRelation)
		tuples := rel.tuples
		truncated := !rel.complete
		if capN > 0 && len(tuples) > capN {
			tuples = tuples[:capN]
			truncated = true
		}
		// The slice aliases the cached value; rows are only ever encoded,
		// never mutated (the cache package's immutability contract).
		row.Tuples = tuples
		row.Truncated = truncated
	}
}
