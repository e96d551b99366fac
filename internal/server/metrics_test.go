package server_test

import (
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rankagg/internal/rankings"
	"rankagg/internal/server"
)

// maskValues keeps every HELP and TYPE line of an exposition document and
// every series' name and labels, and masks each sample value down to its
// number format: the integer part becomes N and each fractional digit n,
// so 0.001234 reads N.nnnnnn and 192 reads N. What is left is what a
// scrape exposes, in output order, independent of timing and traffic.
func maskValues(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			cut := strings.LastIndexByte(line, ' ')
			value := line[cut+1:]
			line = line[:cut] + " N"
			if dot := strings.IndexByte(value, '.'); dot >= 0 {
				line += "." + strings.Repeat("n", len(value)-dot-1)
			}
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// TestMetricsGolden pins the /metrics document family by family against
// testdata/metrics_*.golden: every HELP and TYPE line, and every series
// with its labels and its value's number format, in output order. The
// store-backed server adds the store's families. The traffic before the
// scrape fixes which labeled series exist.
func TestMetricsGolden(t *testing.T) {
	wire := rankings.DatasetWire{
		Names: []string{"A", "B", "C", "D"},
		Rankings: []*rankings.Ranking{
			rankings.New([]int{0}, []int{3}, []int{1, 2}),
			rankings.New([]int{0}, []int{1, 2}, []int{3}),
			rankings.New([]int{3}, []int{0, 2}, []int{1}),
		},
	}
	spec := map[string]any{"algorithm": "BioConsert"}
	for _, tc := range []struct {
		golden string
		store  bool
	}{
		{"metrics_ephemeral.golden", false},
		{"metrics_store.golden", true},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			cfg := server.Config{}
			if tc.store {
				cfg.Store = openStore(t, t.TempDir())
			}
			_, ts := newTestServer(t, cfg)
			put, _ := putDataset(t, ts.URL, wire)
			aggregateHash(t, ts.URL, put.DatasetHash, "BioConsert")
			if resp, data := doJSON(t, http.MethodPost, ts.URL+"/v1/aggregate",
				map[string]any{"spec": spec, "names": wire.Names, "toplists": [][]int{{0, 1}, {2, 0}}}); resp.StatusCode != http.StatusOK {
				t.Fatalf("toplists aggregate: %d %s", resp.StatusCode, data)
			}
			if resp, _ := doJSON(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
				t.Fatalf("healthz: %d", resp.StatusCode)
			}
			got := maskValues(scrape(t, ts.URL))
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				for i := 0; i < max(len(gl), len(wl)); i++ {
					var g, w string
					if i < len(gl) {
						g = gl[i]
					}
					if i < len(wl) {
						w = wl[i]
					}
					if g != w {
						t.Fatalf("/metrics differs from %s at line %d:\n got  %q\n want %q\nfull masked output:\n%s", tc.golden, i+1, g, w, got)
					}
				}
			}
		})
	}
}
