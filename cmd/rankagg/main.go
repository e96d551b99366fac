// Command rankagg aggregates rankings with ties from a file (or stdin) into
// a consensus ranking through the context-aware Session API.
//
// Usage:
//
//	rankagg [-algo name] [-normalize unify|unify-broken|project|k-unify] [-k N]
//	        [-format text|csv] [-eps E] [-timeout D] [-workers N] [-seed S]
//	        [-restarts N] [-approx-mode auto|force|off] [-json] [file]
//	rankagg -list
//
// Text input holds one ranking per line in bracket notation ("[{A},{B,C}]")
// or compact notation ("A > B=C"); '#' starts a comment. CSV input
// (-format csv) holds "source,item,score" rows: one ranking with ties per
// source, items within -eps of a score level tied. When rankings cover
// different elements a normalization process must be chosen. The consensus
// and its generalized Kemeny score are printed (or a JSON document with
// -json).
//
// -timeout bounds the aggregation: on expiry the best incumbent found so
// far is printed and marked deadline-hit. Ctrl-C cancels the run cleanly.
//
// -approx-mode governs the matrix-free approximation tier (lehmer,
// avgrank, scores). Under auto (the default) a dataset whose projected
// pair matrix exceeds the 12·4096² byte budget is diverted to the tier
// with a substituted algorithm and a stderr note; force runs every
// aggregation matrix-free; off never diverts (explicitly requested
// matrix-free algorithms still run). Matrix-free runs accept incomplete
// datasets directly — no -normalize needed — and mark their JSON output
// with "approx": true.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"rankagg"
	"rankagg/internal/rankings"
)

func main() {
	algoName := flag.String("algo", "BioConsert", "aggregation algorithm (see -list)")
	norm := flag.String("normalize", "", "normalization for incomplete datasets: unify, unify-broken, project, or k-unify")
	kFlag := flag.Int("k", 2, "minimum rankings per element for -normalize k-unify")
	format := flag.String("format", "text", "input format: text or csv")
	eps := flag.Float64("eps", 0, "score tie tolerance for csv input")
	timeout := flag.Duration("timeout", 0, "aggregation time budget (0 = none); on expiry the best incumbent is printed")
	workers := flag.Int("workers", 0, "worker budget for parallel restarts/runs (0 = all CPUs)")
	seedFlag := flag.Int64("seed", 0, "seed for randomized algorithms")
	restarts := flag.Int("restarts", 0, "restart-pool size for multi-start algorithms (0 = algorithm default)")
	approxMode := flag.String("approx-mode", "auto", "matrix-free approximation tier: auto (divert datasets whose projected pair matrix exceeds 12*4096^2 bytes), force (always matrix-free), off (never divert)")
	jsonOut := flag.Bool("json", false, "emit a JSON result document")
	list := flag.Bool("list", false, "list available algorithms and exit")
	verbose := flag.Bool("v", false, "print dataset features, run statistics, and per-input distances")
	flag.Parse()

	if *list {
		for _, n := range rankagg.Algorithms() {
			fmt.Println(n)
		}
		return
	}
	switch *approxMode {
	case "auto", "force", "off":
	default:
		fatal(fmt.Errorf("unknown -approx-mode %q (auto, force, off)", *approxMode))
	}

	in := os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	var (
		d   *rankagg.Dataset
		u   *rankagg.Universe
		err error
	)
	switch *format {
	case "text":
		d, u, err = rankagg.ReadDataset(in)
	case "csv":
		d, u, err = rankagg.ParseScoreCSV(in, *eps)
	default:
		err = fmt.Errorf("unknown -format %q", *format)
	}
	if err != nil {
		fatal(err)
	}
	if d.M() == 0 {
		fatal(fmt.Errorf("no rankings in input"))
	}

	if !d.Complete() && *norm != "" {
		var toOld []int
		switch *norm {
		case "unify":
			d, toOld, _ = rankagg.Unify(d)
		case "unify-broken":
			d, toOld, _ = rankagg.UnifyBroken(d)
		case "project":
			d, toOld, _ = rankagg.Project(d)
		case "k-unify":
			d, toOld, _ = rankagg.KUnify(d, *kFlag)
		default:
			fatal(fmt.Errorf("unknown -normalize %q", *norm))
		}
		u = rankagg.SubUniverse(u, toOld)
	}
	if d.N == 0 {
		fatal(fmt.Errorf("normalization removed every element"))
	}

	// Tier admission, mirroring the server's router: explicit matrix-free
	// algorithms always take the approx path; otherwise auto diverts when
	// the projected pair matrix would blow the default serve budget.
	const approxBudget = 12 * 4096 * 4096 // cmd/serve's default -max-elements budget
	runName := *algoName
	approxTier := rankagg.MatrixFree(runName)
	if !approxTier {
		switch *approxMode {
		case "force":
			runName = rankagg.ApproxDefault(d)
			approxTier = true
		case "auto":
			if need := rankagg.PredictMatrixBytes(rankagg.MatrixAuto, d.N, d.M(), d.Complete()); need > approxBudget {
				runName = rankagg.ApproxDefault(d)
				approxTier = true
				fmt.Fprintf(os.Stderr, "rankagg: projected pair matrix (%d bytes) exceeds the %d-byte budget; aggregating matrix-free with %s (-approx-mode off forces the exact tier)\n",
					need, int64(approxBudget), runName)
			}
		}
	}
	if !d.Complete() && !approxTier {
		fatal(fmt.Errorf("rankings cover different elements; pass -normalize unify|unify-broken|project|k-unify or a matrix-free algorithm (lehmer, avgrank, scores)"))
	}

	// Ctrl-C cancels the run; -timeout becomes a deadline that keeps the
	// incumbent.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	// The CLI, the library, and the server all run from the same canonical
	// RunSpec, so a flag set here reproduces a server request bit-for-bit
	// (Normalize resolves the defaults in one place — an unset -seed is the
	// same run as -seed 0).
	spec := rankagg.RunSpec{
		Algorithm: runName,
		Seed:      seedFlag,
		Restarts:  *restarts,
	}
	var opts []rankagg.Option
	if *timeout > 0 {
		opts = append(opts, rankagg.WithTimeLimit(*timeout))
	}
	var res *rankagg.Result
	if approxTier {
		// Matrix-free algorithms read no seed and no restarts.
		res, err = rankagg.RunMatrixFree(ctx, spec.Algorithm, d, append(opts, rankagg.WithWorkers(*workers))...)
	} else {
		var sess *rankagg.Session
		sess, err = rankagg.NewSession(d, rankagg.WithWorkers(*workers))
		if err != nil {
			fatal(err)
		}
		res, err = sess.RunSpec(ctx, spec, opts...)
	}
	if err != nil {
		fatal(err)
	}
	consensus := res.Consensus

	if *jsonOut {
		printJSON(res, u, d)
		return
	}
	fmt.Println(u.Format(consensus))
	fmt.Printf("generalized Kemeny score: %d\n", res.Score)
	if res.Approx {
		fmt.Printf("matrix-free approximation (%s): no pair matrix was built\n", res.Algorithm)
	}
	if res.DeadlineHit {
		fmt.Printf("time budget hit after %v: best incumbent shown (not a completed run)\n", res.Elapsed.Round(time.Millisecond))
	} else if res.Proved {
		fmt.Println("optimality proved")
	}
	if *verbose {
		f := rankagg.ExtractFeatures(d)
		fmt.Printf("n=%d m=%d similarity=%.3f largeTies=%v\n", f.N, f.M, f.Similarity, f.LargeTies)
		fmt.Printf("elapsed=%v restarts=%d nodes=%d iterations=%d dataset=%s\n",
			res.Elapsed.Round(time.Microsecond), res.Stats.Restarts, res.Stats.Nodes, res.Stats.Iterations, d.Hash())
		for i, r := range d.Rankings {
			fmt.Printf("G(consensus, input %d) = %d\n", i+1, rankagg.Dist(consensus, r, d.N))
		}
		for _, rec := range rankagg.Recommend(f, false, false) {
			fmt.Printf("recommended: %s — %s\n", rec.Algorithm, rec.Reason)
		}
	}
}

// jsonResult is the -json output document.
type jsonResult struct {
	Algorithm   string     `json:"algorithm"`
	Score       int64      `json:"score"`
	Approx      bool       `json:"approx,omitempty"`
	Proved      bool       `json:"proved"`
	DeadlineHit bool       `json:"deadline_hit,omitempty"`
	ElapsedMS   float64    `json:"elapsed_ms"`
	DatasetHash string     `json:"dataset_hash"`
	Similarity  float64    `json:"similarity"`
	N           int        `json:"n"`
	M           int        `json:"m"`
	Consensus   [][]string `json:"consensus"`
}

func printJSON(r *rankagg.Result, u *rankagg.Universe, d *rankagg.Dataset) {
	res := jsonResult{
		Algorithm:   r.Algorithm,
		Score:       r.Score,
		Approx:      r.Approx,
		Proved:      r.Proved,
		DeadlineHit: r.DeadlineHit,
		ElapsedMS:   float64(r.Elapsed.Nanoseconds()) / 1e6,
		DatasetHash: d.Hash(),
		Similarity:  rankagg.Similarity(d),
		N:           d.N,
		M:           d.M(),
		Consensus:   rankings.BucketNames(r.Consensus, u),
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(res); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rankagg:", err)
	os.Exit(1)
}
