package mpi

import (
	"testing"

	"viampi/internal/simnet"
)

// TestBarrierAlgorithmsSynchronize verifies the synchronization property for
// every barrier algorithm at power-of-2 and odd sizes.
func TestBarrierAlgorithmsSynchronize(t *testing.T) {
	for _, alg := range []string{"rd", "dissemination", "tree"} {
		for _, n := range []int{2, 5, 8, 9} {
			alg, n := alg, n
			t.Run(alg, func(t *testing.T) {
				entered := make([]simnet.Time, n)
				exited := make([]simnet.Time, n)
				cfg := testCfg(n)
				cfg.BarrierAlg = alg
				runWorld(t, cfg, func(r *Rank) {
					me := r.Rank()
					r.Proc().Sleep(simnet.Duration(me*137) * simnet.Microsecond)
					entered[me] = r.Proc().Now()
					if err := r.World().Barrier(); err != nil {
						t.Error(err)
						return
					}
					exited[me] = r.Proc().Now()
				})
				var last simnet.Time
				for _, e := range entered {
					if e > last {
						last = e
					}
				}
				for i, x := range exited {
					if x < last {
						t.Errorf("%s n=%d: rank %d left at %v before last entry %v", alg, n, i, x, last)
					}
				}
			})
		}
	}
	// Unknown algorithm errors out.
	cfg := testCfg(2)
	cfg.BarrierAlg = "voodoo"
	if _, err := Run(cfg, func(r *Rank) {
		if err := r.World().Barrier(); err == nil {
			t.Error("unknown barrier alg accepted")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// TestBarrierAlgConnectionFootprint: under on-demand, the tree barrier
// creates fewer VIs than recursive doubling, which creates fewer than
// dissemination — the connection/latency trade-off the variants exist for.
func TestBarrierAlgConnectionFootprint(t *testing.T) {
	const n = 16
	vis := map[string]float64{}
	for _, alg := range []string{"tree", "rd", "dissemination"} {
		cfg := testCfg(n)
		cfg.BarrierAlg = alg
		w := runWorld(t, cfg, func(r *Rank) {
			for i := 0; i < 5; i++ {
				if err := r.World().Barrier(); err != nil {
					t.Error(err)
					return
				}
			}
		})
		vis[alg] = w.AvgVIs()
	}
	if !(vis["tree"] < vis["rd"] && vis["rd"] < vis["dissemination"]) {
		t.Errorf("footprint ordering broken: %v", vis)
	}
	if vis["rd"] != 4 {
		t.Errorf("rd barrier VIs = %v, want 4 (Table 2)", vis["rd"])
	}
}
