package main

// Workloads. Each one is a pool of datasets split between two clients and,
// per client, a sequence of operations with every request body already
// encoded. All of it is derived from the seed before any clock starts; the
// expected dataset state behind each operation travels with it so the
// answers can be checked after the timed phase.

import (
	"container/heap"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"rankagg"
	"rankagg/internal/gen"
	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

const nClients = 2

// kind is an operation class; latencies are reported per class.
type kind uint8

const (
	kindSolve kind = iota // by-hash aggregate whose (dataset, spec) was never answered
	kindHit               // repeat of an answered (dataset, spec)
	kindWarm              // aggregate right after a PATCH, at the rotated hash
	kindCold              // inline POST /v1/aggregate of a never-seen dataset
	kindPatch             // PATCH /v1/datasets/{hash}
	numKinds
)

var kindNames = [numKinds]string{"solve", "hit", "warm", "cold", "patch"}

// op is one closed-loop request plus what its answer must be.
type op struct {
	kind kind
	slot int    // the client's dataset slot; -1 for an inline op
	body []byte // spec, inline dataset or PATCH delta
	algo string // the algorithm an aggregate asks for; "" for a patch
	// state is the dataset the answer is scored on; for a patch, the state
	// after it. A cold op has none: its dataset is decoded from body when
	// checked, so thousands of them are not held in memory. Content hashes
	// are computed when an op is checked.
	state *rankings.Dataset
	// hash is, for a restart's aggregate, the hash it is sent to.
	hash string
	// hitOf is, for a hit, the index of the op whose answer it repeats.
	hitOf int
	// approx marks an answer the matrix-free tier must serve.
	approx bool
	// userBytes is the size of the data a PATCH asks to be stored.
	userBytes int
}

// family draws fresh rankings from the model behind one dataset; a PATCH
// adds one.
type family interface {
	ranking(rng *rand.Rand) *rankings.Ranking
}

type uniformFamily struct{ n int }

func (f uniformFamily) ranking(rng *rand.Rand) *rankings.Ranking { return gen.UniformRanking(rng, f.n) }

// markovFamily walks steps Markov-chain moves from a fixed seed ranking
// (the paper's §6.1.2 family, as gen.MarkovDataset draws it).
type markovFamily struct {
	seed     *rankings.Ranking
	n, steps int
}

func (f markovFamily) ranking(rng *rand.Rand) *rankings.Ranking {
	w := gen.NewWalker(f.seed, f.n)
	w.Walk(rng, f.steps)
	return w.Ranking()
}

func newMarkov(rng *rand.Rand, n, m, steps int) (*rankings.Dataset, family) {
	f := markovFamily{seed: gen.UniformRanking(rng, n), n: n, steps: steps}
	return gen.MarkovDataset(rng, f.seed, n, m, f.steps), f
}

// topListFamily draws top-k lists: the first length elements of a
// Plackett–Luce order whose weights fall as 1/(rank+1)^s along a hidden
// popularity order, so lists overlap on popular elements and disagree on
// their order.
type topListFamily struct {
	length int
	order  []int     // order[i] is the element of popularity rank i
	weight []float64 // Plackett–Luce weight of popularity rank i
}

func newTopListFamily(rng *rand.Rand, n, length int, s float64) *topListFamily {
	f := &topListFamily{length: length, order: rng.Perm(n), weight: make([]float64, n)}
	for i := range f.weight {
		f.weight[i] = math.Pow(float64(i+1), -s)
	}
	return f
}

// ranking samples by exponential clocks: element i rings at Exp(weight_i)
// and the first length to ring, in ringing order, are a Plackett–Luce
// prefix.
func (f *topListFamily) ranking(rng *rand.Rand) *rankings.Ranking {
	h := make(clockHeap, 0, f.length+1)
	for i, w := range f.weight {
		t := rng.ExpFloat64() / w
		if len(h) < f.length {
			heap.Push(&h, clock{t, f.order[i]})
		} else if t < h[0].t {
			h[0] = clock{t, f.order[i]}
			heap.Fix(&h, 0)
		}
	}
	list := make([]int, len(h))
	for i := len(h) - 1; i >= 0; i-- {
		list[i] = heap.Pop(&h).(clock).e
	}
	return rankings.FromPermutation(list)
}

type clock struct {
	t float64
	e int
}

// clockHeap is a max-heap on t: the root is the latest of the kept clocks.
type clockHeap []clock

func (h clockHeap) Len() int           { return len(h) }
func (h clockHeap) Less(i, j int) bool { return h[i].t > h[j].t }
func (h clockHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *clockHeap) Push(x any)        { *h = append(*h, x.(clock)) }
func (h *clockHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// mix is a workload's op mix. The weights are the classes' shares of the
// draws; every patch draw emits a patch op followed by a warm op. A patch removes one
// of the dataset's rankings and adds a fresh one, so a dataset keeps its
// size and an op costs the same early and late in a run.
type mix struct {
	solve, hit, cold, patch float64

	solveAlgos []string // a solve's algorithm is drawn from these
	warmAlgos  []string // a warm op's algorithm is drawn from these
	coldAlgo   string   // a cold op's requested algorithm
	// approx: every aggregate is a matrix-free run with the default seed,
	// so the first ask of a (dataset, algorithm) is a solve and later
	// asks are hits; a hit draw then means "ask again".
	approx bool
	// patchZipf > 1 picks a patch's dataset by Zipf(s) over the client's
	// slots (slot 0 hottest); otherwise, and for every aggregate, the pick
	// is uniform.
	patchZipf float64

	coldData func(rng *rand.Rand) *rankings.Dataset // a cold op's dataset
}

// workload is one traffic mix and the pool it runs on.
type workload struct {
	name    string
	durable bool // server on store.Open; otherwise ephemeral
	// pool builds the datasets PUT during set-up, slot i owned by client
	// i % nClients.
	pool func(rng *rand.Rand) ([]*rankings.Dataset, []family)
	mix  mix
	// opsPerSecond is a client's measured rate; its sequence holds
	// opsMargin times what the timed phase needs at that rate.
	opsPerSecond float64
	// quality is the per-client op prefix whose answers feed
	// kemeny_gap_pct; every run completes it, so the figure repeats
	// exactly for a seed.
	quality int
	// maxElements overrides the server's admission budget (0: default).
	maxElements int
}

var exactAlgos = []string{"BioConsert", "KwikSortMin", "CopelandMethod", "BordaCount"}
var approxAlgos = []string{"lehmer", "avgrank", "scores"}

// workloads returns the benchmark's workloads; tiny shrinks every shape
// for the self-test.
func workloads(tiny bool) []*workload {
	size := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	exactN, exactUM, exactMM := size(200, 12), size(20, 5), size(30, 6)
	topN, topM, topL := size(5000, 300), size(100, 12), size(100, 10)
	coldN, coldM := size(12000, 200), 8
	maxElems := 0
	if tiny {
		maxElems = 64 // keeps the tiny cold payload over budget, as at full size
	}
	return []*workload{
		{
			name: "exact-mix",
			pool: func(rng *rand.Rand) ([]*rankings.Dataset, []family) {
				ds := make([]*rankings.Dataset, 12)
				fs := make([]family, 12)
				for i := range ds {
					if i%4 < 2 { // each client gets 3 uniform and 3 Markov datasets
						ds[i], fs[i] = gen.UniformDataset(rng, exactUM, exactN), uniformFamily{exactN}
					} else {
						ds[i], fs[i] = newMarkov(rng, exactN, exactMM, exactN)
					}
				}
				return ds, fs
			},
			mix: mix{
				solve: 0.46, hit: 0.34, cold: 0.12, patch: 0.08,
				solveAlgos: exactAlgos, warmAlgos: []string{"BioConsert"}, coldAlgo: "CopelandMethod",
				coldData: func(rng *rand.Rand) *rankings.Dataset {
					d, _ := newMarkov(rng, exactN, exactMM, exactN)
					return d
				},
			},
			opsPerSecond: float64(size(104, 10000)),
			quality:      size(150, 12),
		},
		{
			name:    "approx-wire",
			durable: true,
			pool: func(rng *rand.Rand) ([]*rankings.Dataset, []family) {
				ds := make([]*rankings.Dataset, 6)
				fs := make([]family, 6)
				for i := range ds {
					f := newTopListFamily(rng, topN, topL, 1)
					rks := make([]*rankings.Ranking, topM)
					for j := range rks {
						rks[j] = f.ranking(rng)
					}
					ds[i], fs[i] = rankings.NewDataset(topN, rks...), f
				}
				return ds, fs
			},
			mix: mix{
				hit: 0.67, patch: 0.30, cold: 0.03,
				warmAlgos: approxAlgos, solveAlgos: approxAlgos, coldAlgo: "BioConsert",
				// Churn lands mostly on each client's hot dataset; the
				// others keep their state, so their answers repeat.
				approx: true, patchZipf: 2,
				coldData: func(rng *rand.Rand) *rankings.Dataset {
					// Complete rankings with ties around one shared order;
					// over the matrix budget, so the router serves them
					// matrix-free.
					base := rankings.FromPermutation(rng.Perm(coldN))
					rks := make([]*rankings.Ranking, coldM)
					for i := range rks {
						rks[i] = gen.TieByQuantization(rng, base, coldN/4, float64(coldN)/200)
					}
					return rankings.NewDataset(coldN, rks...)
				},
			},
			opsPerSecond: float64(size(55, 10000)),
			quality:      size(60, 12),
			maxElements:  maxElems,
		},
	}
}

// plan is everything one run sends.
type plan struct {
	pool []*rankings.Dataset
	// puts holds the PUT body of each pool dataset, hashes their hashes.
	puts   [][]byte
	hashes []string
	// slots[c] lists the pool indices client c owns (its slot i is
	// pool[slots[c][i]]).
	slots  [nClients][]int
	ops    [nClients][]op
	digest string
	// warm[c] is the length of client c's warm-up: its quality prefix,
	// whose answers feed kemeny_gap_pct, then on an approx mix the fill.
	warm [nClients]int
}

// specBody is the body of a by-hash aggregate: the run spec only.
type specBody struct {
	Spec rankagg.RunSpec `json:"spec"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding a request: %v", err))
	}
	return b
}

func aggregateBody(algo string, seed int64) []byte {
	return mustJSON(specBody{Spec: rankagg.RunSpec{Algorithm: algo, Seed: &seed}})
}

func putBody(d *rankings.Dataset) []byte {
	if !d.Complete() {
		lists := make([][]int, len(d.Rankings))
		for i, r := range d.Rankings {
			lists[i] = r.Elements()
		}
		return mustJSON(server.DatasetPutRequest{DatasetWire: rankings.DatasetWire{N: d.N}, TopLists: lists})
	}
	return mustJSON(server.DatasetPutRequest{DatasetWire: rankings.DatasetWire{N: d.N, Rankings: d.Rankings}})
}

// newPlan generates the pool and both clients' sequences of opsPerClient
// ops from seed.
func newPlan(wl *workload, seed int64, opsPerClient int) *plan {
	rng := rand.New(rand.NewSource(seed))
	p := &plan{}
	var fams []family
	p.pool, fams = wl.pool(rng)
	for i, d := range p.pool {
		p.puts = append(p.puts, putBody(d))
		p.hashes = append(p.hashes, d.Hash())
		p.slots[i%nClients] = append(p.slots[i%nClients], i)
	}
	// Each client's sequence comes from its own generator, so the two are
	// built side by side.
	parallel(func(c int) {
		crng := rand.New(rand.NewSource(seed*1_000_003 + int64(c) + 1))
		sl := make([]*slotGen, len(p.slots[c]))
		for i, pi := range p.slots[c] {
			sl[i] = &slotGen{d: p.pool[pi], fam: fams[pi], asked: map[string]int{}}
		}
		p.ops[c], p.warm[c] = genClient(&wl.mix, crng, c, sl, wl.quality, opsPerClient)
	})
	p.digest = p.opDigest()
	return p
}

// slotGen is the generator's copy of one dataset slot.
type slotGen struct {
	d      *rankings.Dataset
	fam    family
	solved []int          // exact tier: ops answered on the current state
	asked  map[string]int // approx tier: algorithm → op answered on the current state
}

func (s *slotGen) reset(d *rankings.Dataset) {
	s.d, s.solved = d, nil
	clear(s.asked)
}

// genClient builds one client's op sequence of at least n ops, and
// returns it with the length of its warm-up: the first quality ops, then
// on an approx mix the fill.
func genClient(mx *mix, rng *rand.Rand, c int, slots []*slotGen, quality, n int) ([]op, int) {
	ops := make([]op, 0, n+1)
	pick := func() int { return rng.Intn(len(slots)) }
	pickPatch := pick
	if mx.patchZipf > 1 && len(slots) > 1 {
		z := rand.NewZipf(rng, mx.patchZipf, 1, uint64(len(slots)-1))
		pickPatch = func() int { return int(z.Uint64()) }
	}
	// Fresh seeds never repeat within a run: client, then op index.
	seedFor := func() int64 { return int64(c)<<32 | int64(len(ops)) }
	var deck []float64
	warm := -1
	for len(ops) < n || warm < 0 {
		if warm < 0 && len(ops) >= quality {
			if mx.approx {
				// The fill: ask every algorithm on every dataset. An approx
				// answer has the default seed, so the store then holds one
				// consensus entry per (dataset, algorithm) whatever the
				// draws before, and every run's restart rounds preload as
				// many; after the quality prefix alone they found 7 to 13
				// of the 18, and restart_cpu_ms moved with them.
				for i, s := range slots {
					for _, algo := range mx.solveAlgos {
						ops = append(ops, askApprox(s, i, algo, len(ops)))
					}
				}
			}
			warm = len(ops)
			continue
		}
		if len(deck) == 0 {
			deck = mx.deck(rng)
		}
		x := deck[0]
		deck = deck[1:]
		switch {
		case x < mx.solve+mx.hit:
			i := pick()
			s := slots[i]
			if mx.approx {
				algo := mx.solveAlgos[rng.Intn(len(mx.solveAlgos))]
				ops = append(ops, askApprox(s, i, algo, len(ops)))
				continue
			}
			if x >= mx.solve && len(s.solved) > 0 {
				j := s.solved[rng.Intn(len(s.solved))]
				ops = append(ops, op{kind: kindHit, slot: i, body: ops[j].body, algo: ops[j].algo, state: s.d, hitOf: j})
				continue
			}
			algo := mx.solveAlgos[rng.Intn(len(mx.solveAlgos))]
			s.solved = append(s.solved, len(ops))
			ops = append(ops, op{kind: kindSolve, slot: i, body: aggregateBody(algo, seedFor()), algo: algo, state: s.d})
		case x < mx.solve+mx.hit+mx.cold:
			d := mx.coldData(rng)
			seed := seedFor()
			body := mustJSON(server.AggregateRequest{
				Spec:        &rankagg.RunSpec{Algorithm: mx.coldAlgo, Seed: &seed},
				DatasetWire: rankings.DatasetWire{N: d.N, Rankings: d.Rankings},
			})
			ops = append(ops, op{kind: kindCold, slot: -1, body: body, algo: mx.coldAlgo, approx: mx.approx})
		default:
			i := pickPatch()
			s := slots[i]
			add := s.fam.ranking(rng)
			remove := s.d.Rankings[rng.Intn(s.d.M())]
			body := mustJSON(server.PatchRequest{Ops: []server.PatchOp{{Add: add}, {Remove: remove}}})
			s.reset(applyDelta(s.d, []*rankings.Ranking{add}, []*rankings.Ranking{remove}))
			ops = append(ops, op{kind: kindPatch, slot: i, body: body, state: s.d, userBytes: len(body)})
			algo := mx.warmAlgos[rng.Intn(len(mx.warmAlgos))]
			if mx.approx {
				w := askApprox(s, i, algo, len(ops))
				w.kind = kindWarm
				ops = append(ops, w)
				continue
			}
			s.solved = append(s.solved, len(ops))
			ops = append(ops, op{kind: kindWarm, slot: i, body: aggregateBody(algo, seedFor()), algo: algo, state: s.d})
		}
	}
	return ops, warm
}

// deck returns the next hundred draws in shuffled order, each class's
// count rounded from its weight, so every hundred draws hold the same mix
// and a run's cost per op does not ride on how many cold or patch draws
// its seed happened to make. A draw is the middle of its class's interval
// on the summed weights, as genClient's switch reads it.
func (mx *mix) deck(rng *rand.Rand) []float64 {
	ws := []float64{mx.solve, mx.hit, mx.cold, mx.patch}
	var total, lo float64
	for _, w := range ws {
		total += w
	}
	var d []float64
	for _, w := range ws {
		for range int(math.Round(100 * w / total)) {
			d = append(d, lo+w/2)
		}
		lo += w
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// askApprox is a matrix-free aggregate with the default seed: a solve the
// first time (dataset state, algorithm) is asked, a hit afterwards.
func askApprox(s *slotGen, slot int, algo string, idx int) op {
	o := op{kind: kindSolve, slot: slot, body: aggregateBody(algo, 0), algo: algo, state: s.d, approx: true}
	if j, ok := s.asked[algo]; ok {
		o.kind, o.hitOf = kindHit, j
	} else {
		s.asked[algo] = idx
	}
	return o
}

// applyDelta is the server's PATCH semantics on the client's copy: each
// removal drops the first not-yet-dropped ranking equal to it, then the
// additions append in order.
func applyDelta(d *rankings.Dataset, add, remove []*rankings.Ranking) *rankings.Dataset {
	dropped := make([]bool, d.M())
	for _, r := range remove {
		for i, have := range d.Rankings {
			if !dropped[i] && have.Equal(r) {
				dropped[i] = true
				break
			}
		}
	}
	rks := make([]*rankings.Ranking, 0, d.M()+len(add))
	for i, r := range d.Rankings {
		if !dropped[i] {
			rks = append(rks, r)
		}
	}
	return &rankings.Dataset{N: d.N, Rankings: append(rks, add...)}
}

// opDigest fingerprints the pool and both op sequences: two runs of one
// seed must send byte-identical traffic.
func (p *plan) opDigest() string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	for i, b := range p.puts {
		put(i)
		h.Write(b)
	}
	for c := range p.ops {
		for _, o := range p.ops[c] {
			put(int(o.kind))
			put(o.slot)
			put(o.hitOf)
			h.Write(o.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}
