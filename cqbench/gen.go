package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/tree"
	"repro/internal/treebank"
)

// docSpec is one generated document: its name and its XML variants. The
// server only ever receives these bytes; the benchmark builds its own
// independent Document from the same bytes to compute expected answers.
type docSpec struct {
	name     string
	variants [][]byte // variant 0 is uploaded at set-up
}

// query is one conjunctive query the benchmark sends: ad-hoc (source in the
// request) or registered (name in the request, source uploaded at set-up).
type query struct {
	name    string // registered name; "" for ad-hoc
	src     string // source the library compiles for expected answers
	wire    string // source sent on the wire (alpha-renamed for ad-hoc)
	monadic bool
}

// job is one unit of closed-loop client work: a single HTTP request, or a
// cursor walk of up to pages requests that one client issues back to back.
type job struct {
	id     int
	method string
	path   string
	body   []byte
	ndjson bool

	// Verification inputs.
	q     *query
	doc   string // target document; "" for a fleet-wide read
	mode  string
	cap   int      // max_answers (0: none)
	order []string // walk order
	limit int      // walk page size
	pages int      // walk page budget (0: not a walk)

	// Writes: the variant PUT, or -1 for DELETE. A document upload keeps
	// only its XML (shared with the docSpec) and encodes the body when
	// sent, so long runs do not hold a copy of every upload.
	variant int
	xml     []byte
}

// payload is the request body.
func (j *job) payload() []byte {
	if j.xml != nil {
		return putBody(j.xml)
	}
	return j.body
}

func (j *job) isWrite() bool { return j.method != "POST" }

// stream hands out a deterministic sequence of jobs: job i depends only on
// the seed and the jobs before it, whichever client takes it. A fresh
// stream from the same seed therefore hands out the same jobs again.
type stream struct {
	mu   sync.Mutex
	next int
	gen  func(seq int) *job
}

// take returns the next job and its position in the sequence.
func (s *stream) take() (*job, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	seq := s.next
	s.next++
	return s.gen(seq), seq
}

// corpusSeed generates the documents. The corpus is a fixed fixture, like
// a database benchmark's data set at a given scale; the run's --seed
// drives what is asked of it (queries, labels, modes, targets and the
// write sequence). Drawing the documents from the run seed as well made
// the mean cost of a run depend on a handful of documents, which moved
// run-to-run figures by more than the regression bounds.
const corpusSeed = 1

// treebankXML generates a treebank document of about n nodes as XML.
func treebankXML(n int, seed int64) []byte {
	const nodesPerSentence = 27 // measured mean at MaxDepth 7
	c := treebank.Generate(treebank.Config{Sentences: max(1, n/nodesPerSentence), MaxDepth: 7, Seed: seed})
	var buf bytes.Buffer
	if err := tree.WriteXML(&buf, c.Combined); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// evalBody is the /eval request body.
type evalBody struct {
	Query      string   `json:"query,omitempty"`
	Source     string   `json:"source,omitempty"`
	Docs       []string `json:"docs,omitempty"`
	Mode       string   `json:"mode"`
	MaxAnswers int      `json:"max_answers,omitempty"`
	Order      []string `json:"order,omitempty"`
	Limit      int      `json:"limit,omitempty"`
	Cursor     string   `json:"cursor,omitempty"`
}

func evalJob(q *query, doc, mode string, capN int, ndjson bool) *job {
	b := evalBody{Query: q.name, Mode: mode, MaxAnswers: capN}
	if q.name == "" {
		b.Source = q.wire
	}
	if doc != "" {
		b.Docs = []string{doc}
	}
	return &job{method: "POST", path: "/eval", body: mustJSON(b), ndjson: ndjson,
		q: q, doc: doc, mode: mode, cap: capN}
}

// pageBody is the body of page k of a walk: the first page carries the
// order, later pages the previous page's cursor.
func (j *job) pageBody(cursor string) []byte {
	b := evalBody{Source: j.q.wire, Docs: []string{j.doc}, Mode: "tuples", Limit: j.limit}
	if cursor == "" {
		b.Order = j.order
	} else {
		b.Cursor = cursor
	}
	return mustJSON(b)
}

// ---- analytic ---------------------------------------------------------

// Phrase, any and part-of-speech label pools for the query templates.
var (
	phraseLabels = []string{"S", "NP", "VP", "PP", "SBAR"}
	posLabels    = []string{"DT", "NN", "NNS", "VB", "VBD", "IN", "JJ", "RB", "CC"}
	anyLabels    = append(append([]string{}, phraseLabels...), posLabels...)
)

// template is one query shape of Table I. Slots %[1]s..%[3]s are labels.
type template struct {
	strategy string
	monadic  bool
	text     string
}

// The templates span Table I: acyclic Child/Child+ chains (Yannakakis),
// {Child+, Child*} cycles (X-property arc consistency) and
// Child+/Following cycles (NP-side backtracking).
var analyticTemplates = []template{
	{"acyclic", false, "Q(x,y) <- %[1]s(x), Child(x,y), %[2]s(y)"},
	{"acyclic", false, "Q(x,z) <- %[1]s(x), Child+(x,y), %[2]s(y), Child(y,z), %[3]s(z)"},
	{"acyclic", true, "Q(z) <- %[1]s(x), Child+(x,y), %[2]s(y), Child(y,z), %[3]s(z)"},
	{"acyclic", false, "Q(x,y,z) <- %[1]s(x), Child(x,y), %[2]s(y), Child+(y,z), %[3]s(z)"},
	{"xproperty", false, "Q(x,z) <- %[1]s(x), Child+(x,y), %[2]s(y), Child*(y,z), %[3]s(z), Child+(x,z)"},
	{"xproperty", true, "Q(z) <- %[1]s(x), Child+(x,y), %[2]s(y), Child*(y,z), %[3]s(z), Child+(x,z)"},
	{"backtrack", false, "Q(y,z) <- %[1]s(x), Child+(x,y), %[2]s(y), Child+(x,z), %[3]s(z), Following(y,z)"},
	{"backtrack", true, "Q(y) <- %[1]s(x), Child(x,y), %[2]s(y), Child+(x,z), %[3]s(z), Following(y,z)"},
}

// analyticSizes are the document sizes in nodes. Backtracking runs on
// the first four and X-property queries on the first fourteen (up to 10k
// nodes); acyclic queries run on all. On larger documents a single
// request of the NP side costs seconds (and an X-property one about a
// second), and a handful of them would decide a run's throughput.
var analyticSizes = []int{1200, 1200, 1200, 1200, 2000, 3000, 3000, 4000, 4000, 5500, 5500,
	7500, 10000, 10000, 14000, 19000, 25000, 30000}

const (
	analyticSmallDocs  = 4
	analyticMediumDocs = 14
	analyticCap        = 200 // max_answers of tuples and NDJSON reads
	walkLimit          = 25
	walkPages          = 4
)

func analyticDocs() []docSpec {
	docs := make([]docSpec, len(analyticSizes))
	for i, n := range analyticSizes {
		docs[i] = docSpec{name: fmt.Sprintf("a%02d", i), variants: [][]byte{treebankXML(n, corpusSeed*1000+int64(i))}}
	}
	return docs
}

// renameVars gives every variable of a template a per-request suffix, so
// no two requests send the same source text; the query fingerprint (and
// hence the answer) is unchanged.
func renameVars(src string, id int) string {
	r := strings.NewReplacer("x)", fmt.Sprintf("x%d)", id), "x,", fmt.Sprintf("x%d,", id),
		"y)", fmt.Sprintf("y%d)", id), "y,", fmt.Sprintf("y%d,", id),
		"z)", fmt.Sprintf("z%d)", id), "z,", fmt.Sprintf("z%d,", id),
		"(x", fmt.Sprintf("(x%d", id), "(y", fmt.Sprintf("(y%d", id), "(z", fmt.Sprintf("(z%d", id))
	return r.Replace(src)
}

// headArity counts the head variables of a "Q(...) <- ..." source.
func headArity(src string) int {
	head := src[strings.IndexByte(src, '(')+1 : strings.IndexByte(src, ')')]
	if head == "" {
		return 0
	}
	return strings.Count(head, ",") + 1
}

// deck deals the items in a seed-shuffled order, reshuffling after each
// pass, so every run holds the same proportions of each item.
type deck[T any] struct {
	rng   *rand.Rand
	items []T
	next  int
	pass  int // passes completed before the item dealt next
}

func (d *deck[T]) deal() T {
	if d.next == len(d.items) {
		d.next, d.pass = 0, d.pass+1
	}
	if d.next == 0 {
		d.rng.Shuffle(len(d.items), func(i, j int) { d.items[i], d.items[j] = d.items[j], d.items[i] })
	}
	it := d.items[d.next]
	d.next++
	return it
}

// analyticCards is one pass of the analytic mix: every (strategy, mode)
// pair, acyclic four times and X-property twice for each backtracking
// one. Nodes mode takes the class's monadic template.
var analyticCards = func() [][2]string {
	var cards [][2]string
	for _, class := range []string{"acyclic", "acyclic", "acyclic", "acyclic", "xproperty", "xproperty", "backtrack"} {
		for _, mode := range []string{"bool", "nodes", "tuples", "ndjson", "walk"} {
			cards = append(cards, [2]string{class, mode})
		}
	}
	return cards
}()

// analyticKeys is the key space of one (strategy, mode) card: for each
// template, every (labels, document) combination, dealt as a
// seed-shuffled deck, so no combination repeats within a pass of it.
// Pass p repeats the x label atom p more times. That leaves the answers
// and the plan as they are but gives the query a new fingerprint, so a
// long or fast run never runs out of keys the result cache has not seen.
type analyticKeys struct {
	rng       *rand.Rand
	templates []template
	decks     []*deck[int32] // per template
	docs      int
}

// labelPools are the pools of the three label slots.
var labelPools = [3][]string{phraseLabels, anyLabels, posLabels}

// slotSizes is the number of choices for each slot of the template: its
// pool's size, or 1 for a slot the template does not use.
func slotSizes(t template) [3]int {
	var n [3]int
	for k, pool := range labelPools {
		n[k] = 1
		if strings.Contains(t.text, fmt.Sprintf("%%[%d]s", k+1)) {
			n[k] = len(pool)
		}
	}
	return n
}

func newAnalyticKeys(rng *rand.Rand, class string, monadic bool, docs int) *analyticKeys {
	k := &analyticKeys{rng: rng, docs: docs}
	for _, t := range analyticTemplates {
		if t.strategy != class || monadic && !t.monadic {
			continue
		}
		n := docs
		for _, m := range slotSizes(t) {
			n *= m
		}
		d := &deck[int32]{rng: rng, items: make([]int32, n)}
		for i := range d.items {
			d.items[i] = int32(i)
		}
		k.templates = append(k.templates, t)
		k.decks = append(k.decks, d)
	}
	return k
}

// draw returns the next key's template, source and document index.
func (k *analyticKeys) draw() (template, string, int) {
	ti := k.rng.Intn(len(k.templates))
	t, d := k.templates[ti], k.decks[ti]
	i := int(d.deal())
	doc := i % k.docs
	i /= k.docs
	var labels [3]any
	for s, m := range slotSizes(t) {
		labels[s] = labelPools[s][i%m]
		i /= m
	}
	src := fmt.Sprintf(t.text, labels[:]...) + strings.Repeat(fmt.Sprintf(", %s(x)", labels[0]), d.pass)
	return t, src, doc
}

// analyticStream draws ad-hoc jobs: a fresh (template, labels, document,
// mode) combination per job, never repeating a cache key. Strategy and
// mode proportions are exact per pass of the card deck.
func analyticStream(seed int64, docs []docSpec) *stream {
	rng := rand.New(rand.NewSource(seed))
	cards := &deck[[2]string]{rng: rng, items: slices.Clone(analyticCards)}
	classDocs := map[string]int{"acyclic": len(docs), "xproperty": analyticMediumDocs, "backtrack": analyticSmallDocs}
	keys := map[[2]string]*analyticKeys{}
	for _, card := range analyticCards {
		if keys[card] == nil {
			keys[card] = newAnalyticKeys(rand.New(rand.NewSource(seed+int64(len(keys)))), card[0], card[1] == "nodes", classDocs[card[0]])
		}
	}
	return &stream{gen: func(id int) *job {
		card := cards.deal()
		t, src, di := keys[card].draw()
		q := &query{src: src, wire: renameVars(src, id), monadic: t.monadic}
		doc := docs[di].name
		var j *job
		switch card[1] {
		case "ndjson":
			j = evalJob(q, doc, "tuples", analyticCap, true)
		case "walk":
			order := []string{"asc", "desc", "asc"}[:1+rng.Intn(headArity(src))]
			if rng.Intn(2) == 0 {
				order[0] = "desc"
			}
			j = &job{method: "POST", path: "/eval", q: q, doc: doc, mode: "tuples",
				order: order, limit: walkLimit, pages: walkPages}
			j.body = j.pageBody("")
		case "tuples":
			j = evalJob(q, doc, "tuples", analyticCap, false)
		default:
			j = evalJob(q, doc, card[1], 0, false)
		}
		j.id = id
		return j
	}}
}

// ---- hot-cache --------------------------------------------------------

const (
	hotDocs     = 64
	hotDocNodes = 2000
	hotZipfS    = 0.9
)

// hotQueries are registered at set-up; on ~2k-node treebank documents each
// has roughly 50-200 answers.
var hotQueries = []string{
	"Q(x,y) <- NP(x), Child(x,y), NN(y)",
	"Q(x,y) <- NP(x), Child(x,y), NNS(y)",
	"Q(x,y) <- S(x), Child(x,y), VP(y)",
	"Q(x,y) <- PP(x), Child(x,y), IN(y)",
	"Q(x,z) <- PP(x), Child+(x,y), NP(y), Child(y,z), NNS(z)",
	"Q(x,z) <- VP(x), Child+(x,y), PP(y), Child*(y,z), NN(z), Child+(x,z)",
	"Q(x) <- PP(x)",
	"Q(y) <- NP(x), Child(x,y), JJ(y)",
	"Q(x) <- NP(x), Child(x,y), JJ(y)",
	"Q(y) <- VP(x), Child+(x,y), NN(y)",
	"Q(x) <- S(x), Child+(x,y), PP(y)",
	"Q(y) <- VP(x), Child(x,y), VBD(y)",
}

// registered names the queries that are uploaded at set-up.
func registered(prefix string, srcs []string) []*query {
	qs := make([]*query, len(srcs))
	for i, src := range srcs {
		qs[i] = &query{name: fmt.Sprintf("%s%d", prefix, i), src: src, wire: src, monadic: headArity(src) == 1}
	}
	return qs
}

func hotDocSpecs() []docSpec {
	docs := make([]docSpec, hotDocs)
	for i := range docs {
		docs[i] = docSpec{name: fmt.Sprintf("h%02d", i), variants: [][]byte{treebankXML(hotDocNodes, corpusSeed*2000+int64(i))}}
	}
	return docs
}

// hotStream draws (query, document) pairs from a Zipf distribution over
// pair ranks, so a small working set takes most requests. Rank k pairs
// query k mod len(qs) with document (k div len(qs) + 5·query) mod
// len(docs) of a seed-shuffled order: every query is equally popular in
// every run, each rank level spreads over distinct documents, and the
// seed decides which documents are hot. (Letting the seed pick hot pairs
// freely moved throughput by 15% between seeds, with the reply sizes of
// a few hot pairs.)
func hotStream(seed int64, qs []*query, docs []docSpec) *stream {
	rng := rand.New(rand.NewSource(seed))
	n := len(qs) * len(docs)
	docPerm := rng.Perm(len(docs))
	// Zipf weights 1/(k+1)^s by rank; math/rand's Zipf needs s > 1.
	cum := make([]float64, n)
	total := 0.0
	for k := range cum {
		total += math.Pow(float64(k+1), -hotZipfS)
		cum[k] = total
	}
	// One job per pair, shared by all its requests: hundreds of thousands
	// of requests per run should not each allocate a job.
	jobs := make([]*job, n)
	return &stream{gen: func(int) *job {
		k := sort.SearchFloat64s(cum, rng.Float64()*total)
		if jobs[k] == nil {
			qi := k % len(qs)
			q, d := qs[qi], docs[docPerm[(k/len(qs)+5*qi)%len(docs)]]
			mode := "tuples"
			if q.monadic {
				mode = "nodes"
			}
			jobs[k] = evalJob(q, d.name, mode, 0, false)
			jobs[k].id = k
		}
		return jobs[k]
	}}
}

// ---- ingest-churn -----------------------------------------------------

const (
	ingestDocs     = 40
	ingestDocNodes = 7000
	ingestVariants = 2
)

// ingestQueries are the registered fleet-wide read queries.
var ingestQueries = []string{
	"Q(x,y) <- SBAR(x), Child(x,y), IN(y)",
	"Q(y) <- VP(x), Child(x,y), RB(y)",
	"Q() <- S(x), Child+(x,y), SBAR(y), Child*(y,z), JJ(z), Child+(x,z)",
}

func ingestDocSpecs() []docSpec {
	docs := make([]docSpec, ingestDocs)
	for i := range docs {
		d := docSpec{name: fmt.Sprintf("g%02d", i)}
		for v := 0; v < ingestVariants; v++ {
			d.variants = append(d.variants, treebankXML(ingestDocNodes, corpusSeed*100000+int64(i*ingestVariants+v)))
		}
		docs[i] = d
	}
	return docs
}

// putBody is the PUT /docs body.
func putBody(xml []byte) []byte {
	return mustJSON(struct {
		XML string `json:"xml"`
	}{string(xml)})
}

func putJob(d docSpec, v int) *job {
	return &job{method: "PUT", path: "/docs/" + d.name, xml: d.variants[v], doc: d.name, variant: v}
}

// ingestWriter replaces, deletes and re-adds documents: every fifth write
// deletes one, the next re-adds it, the others replace a document with
// its other variant. It keeps its own model of which variant each name
// serves, so its choices depend only on the seed.
func ingestWriter(seed int64, docs []docSpec) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	live := make([]int, len(docs)) // variant served, -1 when deleted
	deleted := -1
	return &stream{gen: func(id int) *job {
		var j *job
		switch i := rng.Intn(len(docs)); {
		case deleted >= 0:
			// Re-add the document deleted by the previous write, so the
			// live corpus, and with it the hydration load, stays level.
			v := rng.Intn(ingestVariants)
			j = putJob(docs[deleted], v)
			live[deleted], deleted = v, -1
		case id%5 == 4:
			j = &job{method: "DELETE", path: "/docs/" + docs[i].name, doc: docs[i].name, variant: -1}
			live[i], deleted = -1, i
		default:
			v := (live[i] + 1) % ingestVariants
			j = putJob(docs[i], v)
			live[i] = v
		}
		j.id = id
		return j
	}}
}

// ingestReader runs fleet-wide reads of the registered queries, in
// rounds that ask each query once in a seed-shuffled order. Each slice of
// the measured window then holds the same mix of cheap and costly reads:
// drawn independently, the mix varied enough to move the median latency.
func ingestReader(seed int64, qs []*query) *stream {
	rng := rand.New(rand.NewSource(seed ^ 0x7ead))
	var round []int
	return &stream{gen: func(id int) *job {
		if len(round) == 0 {
			round = rng.Perm(len(qs))
		}
		q := qs[round[0]]
		round = round[1:]
		mode := "tuples"
		switch {
		case q.monadic:
			mode = "nodes"
		case strings.HasPrefix(q.src, "Q()"):
			mode = "bool"
		}
		j := evalJob(q, "", mode, 0, false)
		j.id = id
		return j
	}}
}
