package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/osid"
	"repro/internal/workload"
)

// scanCensus recomputes what SideInfo and the node counts report by
// walking the node table, the way they were computed before the
// cluster kept counters.
func scanCensus(c *Cluster) (total, idle, on [osSlots]int, switching, broken int) {
	for _, n := range c.nodes {
		if n.Switching {
			switching++
		} else {
			on[n.OS]++
			if n.OS.Valid() {
				total[n.OS]++
				if c.nodeIdle(n) {
					idle[n.OS]++
				}
			}
		}
		if n.Broken {
			broken++
		}
	}
	return
}

// checkCensus compares the counted census with the scan.
func checkCensus(c *Cluster) error {
	total, idle, on, switching, broken := scanCensus(c)
	for _, os := range []osid.OS{osid.Linux, osid.Windows} {
		s := c.SideInfo(os)
		if s.TotalNodes != total[os] || s.IdleNodes != idle[os] {
			return fmt.Errorf("%s side counts %d nodes, %d idle; scan %d, %d", os, s.TotalNodes, s.IdleNodes, total[os], idle[os])
		}
	}
	for _, os := range []osid.OS{osid.None, osid.Linux, osid.Windows} {
		if got := c.NodesOn(os); got != on[os] {
			return fmt.Errorf("NodesOn(%s) = %d, scan %d", os, got, on[os])
		}
	}
	if c.SwitchingCount() != switching || c.BrokenCount() != broken {
		return fmt.Errorf("switching/broken %d/%d, scan %d/%d", c.SwitchingCount(), c.BrokenCount(), switching, broken)
	}
	return nil
}

// censusTrace mixes alternating wide phases, which make the hybrids
// move nodes, with a narrow background stream on both sides, which
// keeps nodes passing between idle and busy.
func censusTrace() workload.Trace {
	return workload.Merge(
		workload.PhasedWideMix(workload.PhasedConfig{Seed: 5, Phases: 6, WindowsFrac: 0.5, PhaseGap: 2 * time.Hour, WideNodes: 6}),
		workload.Poisson(workload.PoissonConfig{Seed: 9, Duration: 12 * time.Hour, JobsPerHour: 6, WindowsFrac: 0.4, MaxNodes: 2}),
	)
}

// TestSideInfoMatchesScan runs every cluster organisation, boot
// failures, live reimages and a PBS node taken down behind the
// cluster's back, and after every engine event requires the counted
// census behind SideInfo, NodesOn, SwitchingCount and BrokenCount to
// equal a scan of the node table.
func TestSideInfoMatchesScan(t *testing.T) {
	// reimage reimages the first idle booted node it finds, counting
	// successes.
	reimage := func(c *Cluster, done *int) {
		for _, n := range c.nodes {
			if n.OS.Valid() && !n.Switching && c.nodeIdle(n) {
				if _, err := c.ReimageWindows(n.HW.Name, true); err == nil {
					*done++
				}
				return
			}
		}
	}
	cases := []struct {
		name  string
		cfg   Config
		setup func(c *Cluster, done *int)
		// check asserts the case exercised what it names.
		check func(c *Cluster, done int) error
	}{
		{name: "hybrid-v1", cfg: Config{Mode: HybridV1}},
		{name: "hybrid-v2-flag", cfg: Config{Mode: HybridV2}},
		{name: "hybrid-v2-per-mac", cfg: Config{Mode: HybridV2, PerMACBoot: true}},
		{name: "static-split", cfg: Config{Mode: Static}},
		{name: "mono-stable", cfg: Config{Mode: MonoStable}},
		{
			name: "boot-failures", cfg: Config{Mode: HybridV2, BootFailureProb: 0.3},
			check: func(c *Cluster, _ int) error {
				if c.BrokenCount() == 0 {
					return fmt.Errorf("no node broke")
				}
				return nil
			},
		},
		{
			name: "reimage", cfg: Config{Mode: HybridV1},
			setup: func(c *Cluster, done *int) {
				for _, at := range []time.Duration{30 * time.Minute, 3 * time.Hour, 7 * time.Hour} {
					c.Eng.At(at, func() { reimage(c, done) })
				}
			},
			check: func(_ *Cluster, done int) error {
				if done == 0 {
					return fmt.Errorf("no reimage succeeded")
				}
				return nil
			},
		},
		{
			name: "pbs-node-down", cfg: Config{Mode: HybridV2},
			setup: func(c *Cluster, done *int) {
				c.Eng.At(90*time.Minute, func() {
					for _, n := range c.nodes {
						if n.OS == osid.Linux && !n.Switching {
							if c.PBS.SetNodeAvailable(n.HW.Name, false) == nil {
								*done++
							}
							c.Eng.After(3*time.Hour, func() { _ = c.PBS.SetNodeAvailable(n.HW.Name, true) })
							return
						}
					}
				})
			},
			check: func(_ *Cluster, done int) error {
				if done == 0 {
					return fmt.Errorf("no PBS node was taken down")
				}
				return nil
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Nodes, cfg.Cycle, cfg.Seed = 8, 5*time.Minute, 17
			c := newCluster(t, cfg)
			done := 0
			if tc.setup != nil {
				tc.setup(c, &done)
			}
			f := scheduleTrace(c, censusTrace())
			events := 0
			c.Eng.RunWhile(3*24*time.Hour, func() bool {
				if err := checkCensus(c); err != nil {
					t.Fatalf("after %d events, at %v: %v", events, c.Eng.Now(), err)
				}
				events++
				return f.Busy()
			})
			c.Quiesce()
			if cfg.Mode != Static && c.Summary().Switches == 0 {
				t.Fatal("no switch happened: the census never moved between sides")
			}
			if tc.check != nil {
				if err := tc.check(c, done); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
