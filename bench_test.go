// Package repro's root benchmark suite regenerates the paper's
// evaluation under `go test -bench`: one benchmark (family) per table
// and figure (the experiment index lives in README.md). Custom metrics
// (msgs/op, rounds/op, topo/op, gap) carry the quantities the paper
// reports; ns/op is simulator overhead, not a paper quantity — except
// in the Churn* family, where ns/op is the measured quantity
// (incremental vs full-rebuild maintenance cost).
package repro

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"testing"

	"repro/dex"
	"repro/internal/dht"
	"repro/internal/experiments"
	"repro/internal/flipgraph"
	"repro/internal/harness"
	"repro/internal/lawsiu"
	"repro/internal/naive"
	"repro/internal/pcycle"
	"repro/internal/skipgraph"
	"repro/internal/spectral"
)

func dexNet(b *testing.B, n0 int, mode dex.Mode) *dex.Network {
	b.Helper()
	nw, err := dex.New(dex.WithInitialSize(n0), dex.WithMode(mode))
	if err != nil {
		b.Fatal(err)
	}
	return nw
}

// churnSteps drives b.N random-churn steps and reports the Table 1 cost
// metrics per operation.
func churnSteps(b *testing.B, m harness.Maintainer, seed int64) {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	adv := harness.RandomChurn{PInsert: 0.5}
	var rounds, msgs, topo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.Step(m, rng); err != nil {
			b.Fatal(err)
		}
		c := m.LastCost()
		rounds += float64(c.Rounds)
		msgs += float64(c.Messages)
		topo += float64(c.TopologyChanges)
	}
	b.ReportMetric(rounds/float64(b.N), "rounds/op")
	b.ReportMetric(msgs/float64(b.N), "msgs/op")
	b.ReportMetric(topo/float64(b.N), "topo/op")
	b.ReportMetric(float64(m.Graph().MaxDistinctDegree()), "maxdeg")
}

// --- T1: Table 1 -------------------------------------------------------------

func BenchmarkTable1_DEX(b *testing.B) {
	churnSteps(b, dexNet(b, 256, dex.Staggered), 1)
}

func BenchmarkTable1_LawSiu(b *testing.B) {
	nw, err := lawsiu.New(256, 3, 1)
	if err != nil {
		b.Fatal(err)
	}
	churnSteps(b, harness.LawSiuMaintainer{Network: nw}, 1)
}

func BenchmarkTable1_SkipGraph(b *testing.B) {
	nw, err := skipgraph.New(256, 1)
	if err != nil {
		b.Fatal(err)
	}
	churnSteps(b, harness.SkipMaintainer{Network: nw}, 1)
}

func BenchmarkTable1_FlipChain(b *testing.B) {
	nw, err := flipgraph.New(256, 6, 1)
	if err != nil {
		b.Fatal(err)
	}
	churnSteps(b, harness.FlipMaintainer{Network: nw}, 1)
}

// --- F1: Figure 1 ------------------------------------------------------------

func BenchmarkFig1_Reproduction(b *testing.B) {
	var vg, rg float64
	for i := 0; i < b.N; i++ {
		vg, rg = experiments.Figure1(io.Discard)
	}
	b.ReportMetric(vg, "virtual-gap")
	b.ReportMetric(rg, "real-gap")
}

// --- THM1: worst-case scaling -------------------------------------------------

func BenchmarkThm1_RoundsScaling(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			churnSteps(b, dexNet(b, n, dex.Staggered), 2)
		})
	}
}

func BenchmarkThm1_MessagesScaling(b *testing.B) {
	// Same sweep, insert-biased so inflations occur.
	for _, n := range []int{256, 1024, 4096} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := dexNet(b, n, dex.Staggered)
			rng := rand.New(rand.NewSource(3))
			var msgs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nodes := m.Nodes()
				if err := m.Insert(m.FreshID(), nodes[rng.Intn(len(nodes))]); err != nil {
					b.Fatal(err)
				}
				msgs += float64(m.LastCost().Messages)
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

func BenchmarkThm1_TopologyChanges(b *testing.B) {
	m := dexNet(b, 1024, dex.Staggered)
	rng := rand.New(rand.NewSource(4))
	adv := harness.RandomChurn{PInsert: 0.5}
	var topo, maxTopo float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.Step(m, rng); err != nil {
			b.Fatal(err)
		}
		c := float64(m.LastCost().TopologyChanges)
		topo += c
		if c > maxTopo {
			maxTopo = c
		}
	}
	b.ReportMetric(topo/float64(b.N), "topo/op")
	b.ReportMetric(maxTopo, "topo-max")
}

// --- GAP: spectral gap series --------------------------------------------------

func BenchmarkFig_SpectralGapSeries(b *testing.B) {
	m := dexNet(b, 96, dex.Staggered)
	adv := &harness.CutThinning{}
	rng := rand.New(rand.NewSource(5))
	minGap := 1.0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.Step(m, rng); err != nil {
			b.Fatal(err)
		}
		if i%16 == 0 {
			if g := spectral.Gap(m.Graph()); g < minGap {
				minGap = g
			}
		}
	}
	b.ReportMetric(minGap, "min-gap")
}

// --- AMORT: Corollary 1 ---------------------------------------------------------

func BenchmarkCor1_AmortizedSimplified(b *testing.B) {
	m := dexNet(b, 64, dex.Simplified)
	rng := rand.New(rand.NewSource(6))
	var rounds, msgs float64
	rebuilds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nodes := m.Nodes()
		var err error
		if rng.Float64() < 0.8 || m.Size() <= 6 {
			err = m.Insert(m.FreshID(), nodes[rng.Intn(len(nodes))])
		} else {
			err = m.Delete(nodes[rng.Intn(len(nodes))])
		}
		if err != nil {
			b.Fatal(err)
		}
		st := m.LastStep()
		rounds += float64(st.Rounds)
		msgs += float64(st.Messages)
		if st.Recovery != dex.RecoveryType1 {
			rebuilds++
		}
	}
	b.ReportMetric(rounds/float64(b.N), "amort-rounds/op")
	b.ReportMetric(msgs/float64(b.N), "amort-msgs/op")
	b.ReportMetric(float64(rebuilds), "type2-events")
}

// --- BAL: load bounds (Lemmas 3/5/9) --------------------------------------------

func BenchmarkBal_LoadBound(b *testing.B) {
	m := dexNet(b, 128, dex.Staggered)
	rng := rand.New(rand.NewSource(7))
	adv := harness.RandomChurn{PInsert: 0.5}
	maxLoad := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.Step(m, rng); err != nil {
			b.Fatal(err)
		}
		if l := m.MaxLoad(); l > maxLoad {
			maxLoad = l
		}
	}
	b.ReportMetric(float64(maxLoad), "max-load")
}

// --- DHT: Section 4.4.4 ----------------------------------------------------------

func BenchmarkDHT_Ops(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			m := dexNet(b, n, dex.Staggered)
			d := dht.New(m)
			rng := rand.New(rand.NewSource(8))
			var msgs float64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				origin := m.Nodes()[rng.Intn(m.Size())]
				key := fmt.Sprintf("key-%d", i)
				s := d.Put(origin, key, "v")
				_, _, g := d.Get(origin, key)
				msgs += float64(s.Messages + g.Messages)
			}
			b.ReportMetric(msgs/float64(b.N), "msgs/op")
		})
	}
}

// --- MULTI: Corollary 2 ------------------------------------------------------------

func BenchmarkCor2_BatchChurn(b *testing.B) {
	m := dexNet(b, 256, dex.Simplified)
	rng := rand.New(rand.NewSource(9))
	var msgs float64
	batches := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := m.Size()
		k := n / 16
		if k < 1 {
			k = 1
		}
		// Alternate insert/delete batches, with a hard size corridor so a
		// streak of rejected (model-illegal) delete batches cannot
		// compound the network size across a long benchmark run.
		if (i%2 == 0 || n < 128) && n < 512 {
			var specs []dex.InsertSpec
			nodes := m.Nodes()
			for j := 0; j < k; j++ {
				specs = append(specs, dex.InsertSpec{ID: m.FreshID(), Attach: nodes[rng.Intn(len(nodes))]})
			}
			if err := m.InsertBatch(specs); err != nil {
				b.Fatal(err)
			}
		} else {
			nodes := m.Nodes()
			rng.Shuffle(len(nodes), func(x, y int) { nodes[x], nodes[y] = nodes[y], nodes[x] })
			if err := m.DeleteBatch(nodes[:k]); err != nil {
				continue
			}
		}
		msgs += float64(m.LastStep().Messages)
		batches++
	}
	if batches > 0 {
		b.ReportMetric(msgs/float64(batches), "msgs/batch")
	}
}

// --- CHURN: incremental maintenance vs full-rebuild baseline --------------------------
//
// The pair below quantifies the tentpole: per-operation cost of the
// incremental real-graph maintenance versus an engine that recomputes
// the contraction from scratch after every operation (the full-rebuild
// oracle), at p ~ 10^5. The incremental path is o(p) per op, the
// full-rebuild path Theta(p), so the gap is the scaling headroom.

const churnBenchN0 = 25000 // p0 in (10^5, 2*10^5)

func benchChurnMaintenance(b *testing.B, fullRebuild bool, opts ...dex.Option) {
	nw, err := dex.New(append([]dex.Option{
		dex.WithInitialSize(churnBenchN0), dex.WithMode(dex.Staggered), dex.WithSeed(17),
	}, opts...)...)
	if err != nil {
		b.Fatal(err)
	}
	adv := harness.RandomChurn{PInsert: 0.5}
	rng := rand.New(rand.NewSource(17))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := adv.Step(nw, rng); err != nil {
			b.Fatal(err)
		}
		if fullRebuild {
			g := nw.RecomputeGraph()
			if g.NumNodes() != nw.Size() {
				b.Fatalf("oracle lost nodes: %d vs %d", g.NumNodes(), nw.Size())
			}
		}
	}
	b.ReportMetric(float64(nw.P()), "p")
}

func BenchmarkChurnIncremental(b *testing.B) { benchChurnMaintenance(b, false) }
func BenchmarkChurnFullRebuild(b *testing.B) { benchChurnMaintenance(b, true) }

// BenchmarkChurnSampledAudit prices the always-on o(n) audit tier at
// the same scale (the cost of running million-node churn "checked").
func BenchmarkChurnSampledAudit(b *testing.B) {
	benchChurnMaintenance(b, false, dex.WithAuditMode(dex.AuditSampled))
}

// --- CONC: concurrent façade throughput ----------------------------------------------
//
// BenchmarkConcurrentChurn prices the Concurrent façade: c submitter
// goroutines drive non-overlapping insert/delete churn (each owns a
// private id range anchored in its own region of the initial network)
// with the sampled audit on. Every operation commits through the one
// serial path under the façade lock, so the rows show what lock
// contention costs as c grows. One benchmark iteration is one
// insert+delete pair.

const concBenchN0 = 4096

func benchConcurrentChurn(b *testing.B, submitters int) {
	c, err := dex.NewConcurrent(
		dex.WithInitialSize(concBenchN0),
		dex.WithSeed(29),
		dex.WithAuditMode(dex.AuditSampled),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	per := (b.N + submitters - 1) / submitters
	b.ResetTimer()
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			anchor := dex.NodeID(g * (concBenchN0 / submitters))
			for i := 0; i < per; i++ {
				id := dex.NodeID(1_000_000*(g+1) + i)
				if err := c.Insert(id, anchor); err != nil {
					b.Error(err)
					return
				}
				if err := c.Delete(id); err != nil {
					b.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	b.StopTimer()
}

func BenchmarkConcurrentChurn(b *testing.B) {
	for _, subs := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("serialized/c=%d", subs), func(b *testing.B) {
			benchConcurrentChurn(b, subs)
		})
	}
}

// --- FIG-W: walk concentration --------------------------------------------------------

func BenchmarkFig_WalkHitRate(b *testing.B) {
	rates := experiments.WalkHitRate(io.Discard, 128, 0.3, max(b.N, 50), 10)
	b.ReportMetric(rates[4], "hit-rate-4logn")
}

// --- FIG-R: permutation routing --------------------------------------------------------

func BenchmarkFig_PermRouting(b *testing.B) {
	const p = 1009
	z, err := pcycle.New(p)
	if err != nil {
		b.Fatal(err)
	}
	perm := rand.New(rand.NewSource(12)).Perm(p)
	dest := func(x pcycle.Vertex) pcycle.Vertex { return pcycle.Vertex(perm[x]) }
	rounds := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rounds, _ = z.RoutePermutation(dest)
	}
	b.ReportMetric(float64(rounds), "routing-rounds")
}

// --- NAIVE: Section 3 strawmen ----------------------------------------------------------

func BenchmarkNaiveBaselines(b *testing.B) {
	for _, kind := range []naive.Kind{naive.Flooding, naive.GlobalKnowledge} {
		name := "flooding"
		if kind == naive.GlobalKnowledge {
			name = "global-knowledge"
		}
		b.Run(name, func(b *testing.B) {
			nw, err := naive.New(256, kind)
			if err != nil {
				b.Fatal(err)
			}
			m := harness.NaiveMaintainer{Network: nw}
			churnSteps(b, m, 11)
		})
	}
}

func max(a, c int) int {
	if a > c {
		return a
	}
	return c
}
