package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"

	"rankagg"
	"rankagg/internal/core"
	"rankagg/internal/rankings"
)

// The encoding/json decode the store ran before its one-pass readers
// (decode.go), kept as the oracle they are checked against.

func oracleSnapshot(raw []byte) (*snapshotWire, error) {
	var snap snapshotWire
	if err := json.Unmarshal(raw, &snap); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", snapshotFile, err)
	}
	base := &rankings.Dataset{N: snap.N, Rankings: snap.Rankings}
	if err := base.Validate(); err != nil {
		return nil, fmt.Errorf("invalid snapshot: %w", err)
	}
	return &snap, nil
}

func oracleLogRecord(payload []byte) (logRecord, error) {
	var rec logRecord
	err := json.Unmarshal(payload, &rec)
	return rec, err
}

func oracleConsensus(raw []byte, n int) (consensusFile, error) {
	var cf consensusFile
	if err := json.Unmarshal(raw, &cf); err != nil {
		return consensusFile{}, err
	}
	for key, e := range cf.Entries {
		if e == nil || !core.IsFullRanking(e.Consensus, n) {
			delete(cf.Entries, key)
		}
	}
	if cf.Warm != nil && !core.IsFullRanking(cf.Warm.Consensus, n) {
		cf.Warm = nil
	}
	return cf, nil
}

// allocated is the number of bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// allocBound is what a reader may allocate for a document of size bytes:
// a small multiple of the input, whatever universe size it declares.
func allocBound(size int) uint64 { return 64*uint64(size) + 64<<10 }

// checkSnapshot: readSnapshot accepts exactly what the oracle accepts,
// with deeply equal values and the same dataset hash; where the oracle's
// error comes from the dataset checks (the ones naming a ranking), the
// reader's error is the same.
func checkSnapshot(t *testing.T, raw []byte) {
	t.Helper()
	var got *snapshotWire
	var gotErr error
	if a := allocated(func() { got, gotErr = readSnapshot(raw) }); a > allocBound(len(raw)) {
		t.Fatalf("readSnapshot(%q) allocated %d bytes", raw, a)
	}
	want, wantErr := oracleSnapshot(raw)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("readSnapshot(%q): err = %v, oracle err = %v", raw, gotErr, wantErr)
	}
	if wantErr != nil {
		if strings.HasPrefix(wantErr.Error(), "invalid snapshot:") && gotErr.Error() != wantErr.Error() {
			t.Fatalf("readSnapshot(%q): err = %v, oracle err = %v", raw, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readSnapshot(%q) = %+v, oracle %+v", raw, got, want)
	}
	gh := (&rankings.Dataset{N: got.N, Rankings: got.Rankings}).Hash()
	if wh := (&rankings.Dataset{N: want.N, Rankings: want.Rankings}).Hash(); gh != wh {
		t.Fatalf("readSnapshot(%q): dataset hash %s, oracle %s", raw, gh, wh)
	}
	// decode∘encode: what was read writes back as json.Marshal writes it,
	// and reads back the same, but for an empty name list, which
	// omitempty leaves out and so reads back as nil.
	checkSnapshotWriter(t, got)
	back, err := readSnapshot(mustMarshalSnapshot(t, got))
	if len(got.Names) == 0 {
		got.Names = nil
	}
	if err != nil || !reflect.DeepEqual(back, got) {
		t.Fatalf("snapshot %+v read back as %+v (err %v)", got, back, err)
	}
}

func mustMarshalSnapshot(t *testing.T, snap *snapshotWire) []byte {
	t.Helper()
	raw, err := marshalSnapshot(snap)
	if err != nil {
		t.Fatalf("marshalSnapshot(%+v): %v", snap, err)
	}
	return raw
}

// checkSnapshotWriter: marshalSnapshot writes the bytes json.Marshal
// writes, which is what the store wrote before it had its own writer.
func checkSnapshotWriter(t *testing.T, snap *snapshotWire) {
	t.Helper()
	want, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	if got := mustMarshalSnapshot(t, snap); !bytes.Equal(got, want) {
		t.Fatalf("marshalSnapshot(%+v) =\n%s\njson.Marshal:\n%s", snap, got, want)
	}
}

// checkLogRecord: readLogRecord accepts exactly what the oracle accepts,
// with deeply equal records, and both records apply to base alike.
func checkLogRecord(t *testing.T, payload []byte, base *rankings.Dataset) {
	t.Helper()
	var got logRecord
	var gotErr error
	if a := allocated(func() { got, gotErr = readLogRecord(payload) }); a > allocBound(len(payload)) {
		t.Fatalf("readLogRecord(%q) allocated %d bytes", payload, a)
	}
	want, wantErr := oracleLogRecord(payload)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("readLogRecord(%q): err = %v, oracle err = %v", payload, gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("readLogRecord(%q) = %+v, oracle %+v", payload, got, want)
	}
	gd, gotErr := applyDelta(base, got.Add, got.Remove)
	wd, wantErr := applyDelta(base, want.Add, want.Remove)
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("record %q applies with err = %v, oracle's with %v", payload, gotErr, wantErr)
	case gotErr == nil && gd.Hash() != wd.Hash():
		t.Fatalf("record %q applies to hash %s, oracle's to %s", payload, gd.Hash(), wd.Hash())
	}
}

// checkConsensus: readConsensus accepts exactly what the oracle accepts,
// with deeply equal files. Then the file goes through loadConsensus in dir
// (stamped stale when stale is set, so the demotion runs too), and only
// full rankings of n elements may reach Store.Consensus.
func checkConsensus(t *testing.T, raw []byte, n int, dir string, stale bool) {
	t.Helper()
	var got consensusFile
	var gotErr error
	if a := allocated(func() { got, gotErr = readConsensus(raw, n) }); a > allocBound(len(raw)) {
		t.Fatalf("readConsensus(%q) allocated %d bytes", raw, a)
	}
	want, wantErr := oracleConsensus(raw, n)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("readConsensus(%q): err = %v, oracle err = %v", raw, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("readConsensus(%q, %d) = %+v, oracle %+v", raw, n, got, want)
	}
	if err := os.WriteFile(filepath.Join(dir, consensusName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ds := &dataset{dir: dir, cur: &rankings.Dataset{N: n}, curHash: got.Hash}
	if stale || gotErr != nil {
		ds.curHash = "current"
	}
	if err := ds.loadConsensus(); err != nil {
		t.Fatal(err)
	}
	s := &Store{byHash: map[string]*dataset{ds.curHash: ds}}
	entries, warm, _, ok := s.Consensus(ds.curHash)
	if !ok {
		t.Fatal("Consensus: dataset not found")
	}
	for key, e := range entries {
		if e == nil || !core.IsFullRanking(e.Consensus, n) {
			t.Fatalf("consensus %q of %q reaches Consensus() as %+v, not a full ranking of %d elements", key, raw, e, n)
		}
	}
	if warm != nil && !core.IsFullRanking(warm.Consensus, n) {
		t.Fatalf("warm hint of %q reaches Consensus() as %+v, not a full ranking of %d elements", raw, warm, n)
	}
}

// compatFiles returns every file called name in the compat fixture.
func compatFiles(tb testing.TB, name string) [][]byte {
	paths, err := filepath.Glob(filepath.Join("testdata", "compat", datasetsDir, "*", name))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no %s in the compat fixture (err %v)", name, err)
	}
	var out [][]byte
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, raw)
	}
	return out
}

// compatPayloads returns the payload of every record in the compat
// fixture's delta logs.
func compatPayloads(tb testing.TB) [][]byte {
	var out [][]byte
	for _, data := range compatFiles(tb, deltaLogFile) {
		payloads, _, _ := readLog(data)
		out = append(out, payloads...)
	}
	return out
}

// compatTopLists is the compat fixture's top-k list dataset as its
// snapshot holds it: the base the log-record checks apply records to.
func compatTopLists() *rankings.Dataset {
	return rankings.NewDataset(10,
		rankings.New([]int{3}, []int{1}, []int{4}),
		rankings.New([]int{1}, []int{5}, []int{9}, []int{2}),
		rankings.New([]int{6}, []int{5}, []int{3}),
		rankings.New([]int{3}, []int{5}))
}

// The quirks of encoding/json each reader must keep, as seeds and as
// table rows: a null ranking or entry, trailing bytes, a repeated key, a
// case-folded key (ASCII and Unicode) and an escaped key.
var (
	snapshotQuirks = []string{
		`{"n":2,"rankings":[[[0],[1]],null]}`,
		`{"n":2,"rankings":[[[0],[1]]]} x`,
		`{"n":2,"rankings":[[[0],[1]]],"rankings":[[[1],[0]],[[0,1]]],"n":3}`,
		`{"N":2,"RANKINGS":[[[0],[1]]],"Version":4,"sEq":2,"NAMES":["a","b"],"Hash":"h"}`,
		"{\"n\":2,\"ranKingſ\":[[[0],[1]]]}",
		`{"n":2,"rankings":[[[0],[1]]],"n\u0000":3}`,
		`{"n":2,"rankings":[[[0],[1]]],"names":["a","\ud800"]}`,
		`{"n":2,"rankings":[[[0],[1]]],"n":null,"names":null,"extra":{"a":[1,-2.5e3,true,false,null,"\"\\\/\b\f\n\r\t"]}}`,
		`{"n":2,"rankings":[[[0],[2]]]}`,
		`{"n":-1}`,
		`null`,
		`{"n":2,"rankings":[]}`,
		`{"n":2,"rankings":[[[0],[0]]]}`,
		`{"n":2,"rankings":[[[0],[1]]],"hash":5}`,
		`{"n":1e3}`,
		`[]`,
		``,
	}
	logRecordQuirks = []string{
		`{"seq":1,"op":"patch","add":[null]}`,
		`{"seq":1,"op":"patch","add":[[[2],[6]]]}  `,
		`{"seq":1,"op":"patch","add":[[[2],[6]]]}]`,
		`{"seq":1,"seq":2,"add":[[[0]]],"add":[[[8],[9]]],"remove":[[[3],[5]]]}`,
		`{"SEQ":3,"Op":"patch","ADD":[[[8]]],"REMOVE":[[[3],[5]]]}`,
		`{"seq":3,"op":"patch","add":[[[8]]],"remove":[[[3],[5]]],"Remove":null}`,
		`{"seq":3,"op":"tombstone"}`,
		`{"seq":"1"}`,
		`{"add":{}}`,
		`null`,
	}
	consensusQuirks = []string{
		`{"hash":"h","entries":{"k":null}}`,
		`{"hash":"h","entries":{"k":{"consensus":null,"score":1}}}`,
		`{"hash":"h","warm":{"consensus":[[0],[1],[2]],"score":3}} x`,
		`{"hash":"h","entries":{"a":{"consensus":[[0,1,2]]},"a":{"consensus":[[0],[5]]}},"entries":{"b":{"consensus":[[2],[1],[0]]}}}`,
		`{"hash":"h","warm":{"consensus":[[0],[1],[2]]},"warm":{"score":7,"stats":{"restarts":2}}}`,
		`{"hash":"h","warm":{"consensus":[[0],[1],[2]]},"warm":null,"warm":{"score":7}}`,
		`{"HASH":"h","Entries":{"K":{"ALGORITHM":"x","Consensus":[[2,1,0]],"proVed":true,"aPPROX":true}}}`,
		`{"hash":"h","entries":{"k":{"consensus":[[1],[0,2]]}},"entries":null}`,
		`{"hash":"h","entries":{"a":{"consensus":[[0,1,2]]}},"entries":{"b":{"consensus":[[2],[1],[0]]}}}`,
		`{"hash":"h","entries":{},"warm":{"consensus":[[0],[1]]}}`,
		`{"hash":"h","entries":{"k":{"consensus":[[0],[1],[2]],"stats":[]}}}`,
		`{"hash":"h","entries":{"k":5}}`,
		`{"hash":"h","WARM":{"consensus":[[0],[1],[2]],"SCORE":4,"Stats":{"Restarts":3}}}`,
		`{"hash":"h","entries":{"\u006b":{"consensus":[[0],[1],[2]]},"k":{"consensus":[[2],[1],[0]]}}}`,
		`null`,
	}
)

func FuzzSnapshotWire(f *testing.F) {
	for _, raw := range compatFiles(f, snapshotFile) {
		f.Add(raw)
	}
	for _, q := range snapshotQuirks {
		f.Add([]byte(q))
	}
	f.Fuzz(checkSnapshot)
}

func FuzzLogRecord(f *testing.F) {
	for _, p := range compatPayloads(f) {
		f.Add(p)
	}
	for _, q := range logRecordQuirks {
		f.Add([]byte(q))
	}
	base := compatTopLists()
	f.Fuzz(func(t *testing.T, payload []byte) { checkLogRecord(t, payload, base) })
}

func FuzzConsensusFile(f *testing.F) {
	snaps := compatFiles(f, snapshotFile)
	for i, raw := range compatFiles(f, consensusName) {
		snap, err := oracleSnapshot(snaps[i])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw, uint8(snap.N), false)
		f.Add(raw, uint8(snap.N), true)
	}
	for _, q := range consensusQuirks {
		f.Add([]byte(q), uint8(3), false)
		f.Add([]byte(q), uint8(3), true)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, n uint8, stale bool) {
		checkConsensus(t, raw, int(n), dir, stale)
	})
}

// TestStoreDecodeMatchesOracle runs the three checks over the fuzz seeds,
// a nesting-limit pair, and random store documents mutated one byte at a
// time, so accepted and rejected inputs both get coverage without the
// fuzzing engine.
func TestStoreDecodeMatchesOracle(t *testing.T) {
	base := compatTopLists()
	dir := t.TempDir()
	for _, q := range snapshotQuirks {
		checkSnapshot(t, []byte(q))
	}
	for _, q := range logRecordQuirks {
		checkLogRecord(t, []byte(q), base)
	}
	for _, q := range consensusQuirks {
		checkConsensus(t, []byte(q), 3, dir, false)
		checkConsensus(t, []byte(q), 3, dir, true)
	}
	// encoding/json's nesting limit is 10000 open containers, the
	// snapshot object included.
	for _, depth := range []int{9999, 10000} {
		doc := `{"n":0,"x":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + "}"
		checkSnapshot(t, []byte(doc))
	}

	rng := rand.New(rand.NewSource(5))
	alphabet := []byte(`[]{},:"-0123456789 .eEnultrsfaxhNRK\`)
	for i := 0; i < 200; i++ {
		d, names := randomStoreDataset(rng)
		snap, _ := json.Marshal(snapshotWire{Hash: d.Hash(), Version: uint64(i), Seq: int64(i), N: d.N, Names: names, Rankings: d.Rankings})
		add, remove := randomDelta(rng, d)
		rec, _ := json.Marshal(logRecord{Seq: int64(i), Op: opPatch, Add: add, Remove: remove})
		cf := consensusFile{Hash: d.Hash(), Entries: map[string]*ResultWire{}}
		for k := 0; k < 3; k++ {
			n := d.N
			if k == 2 {
				n++ // not a ranking of the dataset: dropped
			}
			cf.Entries[fmt.Sprint(k)] = randomResult(rng, n, int64(k))
		}
		cf.Warm = randomResult(rng, d.N, 9)
		cons, _ := json.Marshal(cf)
		for k := 0; k < 6; k++ {
			mutate := func(doc []byte) []byte {
				mut := slices.Clone(doc)
				if k > 0 {
					mut[rng.Intn(len(mut))] = alphabet[rng.Intn(len(alphabet))]
				}
				return mut
			}
			checkSnapshot(t, mutate(snap))
			checkLogRecord(t, mutate(rec), d)
			checkConsensus(t, mutate(cons), d.N, dir, k == 1)
		}
	}
}

// TestStoreDecodeHugeUniverse: a tiny document declaring a huge universe
// allocates nothing sized by it.
func TestStoreDecodeHugeUniverse(t *testing.T) {
	const huge = 1 << 40
	snap := []byte(fmt.Sprintf(`{"n":%d,"rankings":[[[0],[%d]],[[1],[0]]]}`, huge, huge-1))
	if a := allocated(func() {
		if _, err := readSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}); a > 8<<10 {
		t.Errorf("readSnapshot of a %d-byte snapshot with n=%d allocated %d bytes", len(snap), huge, a)
	}
	cons := []byte(fmt.Sprintf(`{"hash":"h","warm":{"consensus":[[0],[%d]]}}`, huge-1))
	if a := allocated(func() {
		if _, err := readConsensus(cons, huge); err != nil {
			t.Fatal(err)
		}
	}); a > 8<<10 {
		t.Errorf("readConsensus of a %d-byte file for n=%d allocated %d bytes", len(cons), huge, a)
	}
}

// randomStoreDataset draws a complete dataset with ties, sometimes with
// element names, or a dataset of top-k lists.
func randomStoreDataset(rng *rand.Rand) (*rankings.Dataset, []string) {
	if rng.Intn(3) == 0 {
		n := 8 + rng.Intn(5)
		d := rankings.NewDataset(n)
		for range 2 + rng.Intn(4) {
			d.Rankings = append(d.Rankings, randomTopList(rng, n))
		}
		return d, nil
	}
	n := 3 + rng.Intn(5)
	d := randDataset(rng, n, 2+rng.Intn(4))
	if rng.Intn(2) == 0 {
		return d, nil
	}
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("item %d", i)
	}
	return d, names
}

func randomTopList(rng *rand.Rand, n int) *rankings.Ranking {
	return rankings.FromPermutation(rng.Perm(n)[:1+rng.Intn(4)])
}

// randomDelta draws a delta that applies to d: one or two added rankings
// (top-k lists on an incomplete dataset) and up to two removed ones,
// leaving at least one.
func randomDelta(rng *rand.Rand, d *rankings.Dataset) (add, remove []*rankings.Ranking) {
	for range 1 + rng.Intn(2) {
		if d.Complete() {
			add = append(add, randRanking(rng, d.N))
		} else {
			add = append(add, randomTopList(rng, d.N))
		}
	}
	for _, i := range rng.Perm(len(d.Rankings))[:rng.Intn(min(3, len(d.Rankings)))] {
		remove = append(remove, d.Rankings[i])
	}
	return add, remove
}

func randomResult(rng *rand.Rand, n int, score int64) *ResultWire {
	return &ResultWire{
		Algorithm: []string{"BioConsert", "KwikSortMin", "lehmer"}[rng.Intn(3)],
		Consensus: randRanking(rng, n),
		Score:     score,
		Proved:    rng.Intn(4) == 0,
		Approx:    rng.Intn(3) == 0,
		Stats:     rankagg.SearchStats{Restarts: rng.Intn(20), Moves: rng.Int63n(100), WarmStart: rng.Intn(2) == 0},
	}
}

// servedState is what a store serves for one dataset.
type servedState struct {
	Info    DatasetInfo
	Dataset *rankings.Dataset
	Names   []string
	Entries map[string]*ResultWire
	Warm    *ResultWire
	Version uint64
}

func served(t *testing.T, s *Store) map[string]servedState {
	t.Helper()
	out := make(map[string]servedState)
	for _, info := range s.List() {
		d, names, err := s.Dataset(info.Hash)
		if err != nil {
			t.Fatal(err)
		}
		entries, warm, version, ok := s.Consensus(info.Hash)
		if !ok {
			t.Fatalf("Consensus(%s) not found", info.Hash)
		}
		out[info.Hash] = servedState{info, d, names, entries, warm, version}
	}
	return out
}

// checkStoreFiles runs every file under dir through the reader-oracle
// checks.
func checkStoreFiles(t *testing.T, dir string) {
	t.Helper()
	dirs, err := filepath.Glob(filepath.Join(dir, datasetsDir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	for _, dsDir := range dirs {
		raw, err := os.ReadFile(filepath.Join(dsDir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		checkSnapshot(t, raw)
		snap, err := readSnapshot(raw)
		if err != nil {
			t.Fatal(err)
		}
		base := &rankings.Dataset{N: snap.N, Rankings: snap.Rankings}
		data, err := os.ReadFile(filepath.Join(dsDir, deltaLogFile))
		if err != nil {
			t.Fatal(err)
		}
		payloads, _, _ := readLog(data)
		for _, p := range payloads {
			checkLogRecord(t, p, base)
		}
		if raw, err := os.ReadFile(filepath.Join(dsDir, consensusName)); err == nil {
			checkConsensus(t, raw, snap.N, scratch, false)
		}
	}
}

// TestRandomReopenHistories runs random store histories: creates, patches
// (some leaving consensus.json stamped stale, as a crash between a
// PATCH's log append and its consensus rewrite does), saved results,
// deletes, and compactions under a small replay budget. After Close some
// logs get a torn tail. Every file left must read the same under the
// one-pass readers and the encoding/json oracle, and a reopened store must
// serve what the closed one did.
func TestRandomReopenHistories(t *testing.T) {
	var compactions int64
	for seed := int64(1); seed <= 10; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			budget := 1 + rng.Intn(4)
			s := open(t, dir, budget)
			var live []string
			score := int64(0)
			for range 40 {
				switch k := rng.Intn(10); {
				case k < 2 || len(live) == 0:
					d, names := randomStoreDataset(rng)
					h, _, err := s.Create(d, names)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.Contains(live, h) {
						live = append(live, h)
					}
				case k < 6:
					i := rng.Intn(len(live))
					d, _, err := s.Dataset(live[i])
					if err != nil {
						t.Fatal(err)
					}
					path := filepath.Join(s.byHash[live[i]].dir, consensusName)
					stale, _ := os.ReadFile(path)
					add, remove := randomDelta(rng, d)
					live[i] = mustPatch(t, s, live[i], add, remove)
					if stale != nil && rng.Intn(3) == 0 {
						if err := os.WriteFile(path, stale, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				case k < 9:
					h := live[rng.Intn(len(live))]
					d, _, err := s.Dataset(h)
					if err != nil {
						t.Fatal(err)
					}
					score++ // distinct scores keep the demoted best entry unique
					s.SaveConsensus(h, fmt.Sprintf("spec-%d", rng.Intn(3)), randomResult(rng, d.N, score))
				default:
					i := rng.Intn(len(live))
					if ok, err := s.Delete(live[i]); !ok || err != nil {
						t.Fatalf("Delete: %v %v", ok, err)
					}
					live = slices.Delete(live, i, i+1)
				}
			}
			compactions += s.Stats().Compactions
			want := served(t, s)
			s.Close()

			logs, err := filepath.Glob(filepath.Join(dir, datasetsDir, "*", deltaLogFile))
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range logs {
				if rng.Intn(2) == 0 {
					tearTail(t, rng, p)
				}
			}
			checkStoreFiles(t, dir)

			r := open(t, dir, budget)
			if got := served(t, r); !reflect.DeepEqual(got, want) {
				hashes := func(m map[string]servedState) []string {
					var out []string
					for h := range m {
						out = append(out, h)
					}
					sort.Strings(out)
					return out
				}
				for _, h := range hashes(want) {
					if !reflect.DeepEqual(got[h], want[h]) {
						t.Errorf("dataset %s after reopen:\n got %+v\nwant %+v", h, got[h], want[h])
					}
				}
				t.Fatalf("reopened store serves %v, closed one served %v", hashes(got), hashes(want))
			}
		})
	}
	if compactions == 0 {
		t.Error("no history compacted a log")
	}
}

// tearTail appends what a crash mid-append leaves: part of a header, a
// header promising more payload than follows, or a whole record whose
// checksum does not match.
func tearTail(t *testing.T, rng *rand.Rand, path string) {
	t.Helper()
	payload := []byte(`{"seq":99,"op":"patch","add":[[[0]]]}`)
	frame := make([]byte, recordHeaderLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[recordHeaderLen:], payload)
	var tail []byte
	switch rng.Intn(3) {
	case 0:
		tail = frame[:1+rng.Intn(recordHeaderLen-1)]
	case 1:
		tail = frame[:recordHeaderLen+rng.Intn(len(payload))]
	default:
		frame[4] ^= 0xff
		tail = frame
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(tail); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkStoreDecode reads documents of approx-wire's shapes — a
// snapshot of 100 top-100 lists over n=5000, a consensus.json of four
// 5000-element results — with the one-pass readers and with the
// encoding/json oracle.
func BenchmarkStoreDecode(b *testing.B) {
	const n = 5000
	rng := rand.New(rand.NewSource(1))
	d := rankings.NewDataset(n)
	for range 100 {
		d.Rankings = append(d.Rankings, rankings.FromPermutation(rng.Perm(n)[:100]))
	}
	snap, err := json.Marshal(snapshotWire{Hash: d.Hash(), N: n, Rankings: d.Rankings})
	if err != nil {
		b.Fatal(err)
	}
	cf := consensusFile{Hash: d.Hash(), Entries: map[string]*ResultWire{}}
	for k := range 4 {
		cf.Entries[fmt.Sprint(k)] = &ResultWire{Algorithm: "lehmer", Consensus: rankings.FromPermutation(rng.Perm(n)), Score: int64(k), Approx: true}
	}
	cons, err := json.Marshal(cf)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		doc  []byte
		read func([]byte) error
	}{
		{"snapshot/reader", snap, func(raw []byte) error { _, err := readSnapshot(raw); return err }},
		{"snapshot/oracle", snap, func(raw []byte) error { _, err := oracleSnapshot(raw); return err }},
		{"consensus/reader", cons, func(raw []byte) error { _, err := readConsensus(raw, n); return err }},
		{"consensus/oracle", cons, func(raw []byte) error { _, err := oracleConsensus(raw, n); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.doc)))
			for i := 0; i < b.N; i++ {
				if err := c.read(c.doc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
