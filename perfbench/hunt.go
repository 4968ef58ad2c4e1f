package main

import (
	"errors"
	"fmt"
	"time"

	"divsql/internal/difftest"
	"divsql/internal/obs"
)

// hunt: the calibrated differential hunt of cmd/divfuzz (faults armed,
// shrinking on), two streams over 64-row tables. It calls difftest.Run
// directly, bypassing sqldriver, wire, shard and middleware.
//
// A run is a sequence of campaigns, each one difftest.Run of huntN
// statements per stream under its own seed. A campaign's time varies by
// a factor of four with its seed, so a run averages many short ones; and
// since difftest exposes no per-statement timer, a campaign is also the
// unit latency is taken over (see README).
const (
	huntStreams = 2
	huntN       = 250 // statements per stream per campaign
	huntMaxRows = 64
	huntWarmN   = 50 // statements per stream of the warm-up campaign
	// huntCampaignsPerSecond sizes a stretch of load as a fixed count of
	// campaigns: about what the code the benchmark was defined on
	// completes per second on a 2-vCPU machine.
	huntCampaignsPerSecond = 2.5
)

// campaignSeed derives campaign i's seed from the round seed.
func campaignSeed(seed int64, i int) int64 { return seed*100_003 + int64(i) }

// huntWarmSeed seeds the warm-up campaign. It is fixed, not derived from
// the round seed, so that every set-up does the same work: a campaign's
// time varies too much with its seed for setup_s to repeat otherwise.
const huntWarmSeed = 1

type campaign struct {
	res     *difftest.Result
	elapsed time.Duration
}

func runCampaign(seed int64, n int) (campaign, error) {
	cfg := difftest.CalibratedConfig(seed, n)
	cfg.Streams = huntStreams
	cfg.MaxRowsPerTable = huntMaxRows
	start := time.Now()
	res, err := difftest.Run(cfg)
	if err != nil {
		return campaign{}, fmt.Errorf("hunt campaign seed %d: %w", seed, err)
	}
	if want := huntStreams * n; res.Statements != want {
		return campaign{}, fmt.Errorf("hunt campaign seed %d: %d statements adjudicated, want %d", seed, res.Statements, want)
	}
	return campaign{res: res, elapsed: time.Since(start)}, nil
}

// huntBench is a sequence of campaigns under one seed.
type huntBench struct {
	seed  int64
	next  int             // index of the next campaign
	found map[string]bool // distinct divergences: server, fingerprint, verdict source
	snap  func() counters
}

// setupHunt runs a short warm-up campaign: the set-up a hunt has is
// bringing up five fresh servers and a schema, which every campaign
// does first.
func setupHunt(seed int64) (*huntBench, error) {
	if _, err := runCampaign(huntWarmSeed, huntWarmN); err != nil {
		return nil, err
	}
	reg := obs.NewRegistry()
	reg.Register(difftest.SharedTelemetry().MetricsCollector()) // as divsqld registers it
	return &huntBench{seed: seed, found: map[string]bool{}, snap: func() counters { return scrape(reg) }}, nil
}

// load runs the campaigns sized for d. Each campaign's latency sample is
// its mean time per statement on a stream: a stream is a closed loop, so
// that is elapsed × streams / statements.
func (h *huntBench) load(d time.Duration) (loadStats, error) {
	var st loadStats
	for n := max(1, int(d.Seconds()*huntCampaignsPerSecond)); n > 0; n-- {
		c, err := runCampaign(campaignSeed(h.seed, h.next), huntN)
		h.next++
		if err != nil {
			return st, err
		}
		st.ops += c.res.Statements
		st.lat = append(st.lat, ms(c.elapsed)*huntStreams/float64(c.res.Statements))
		for _, d := range c.res.Divergences {
			h.found[string(d.Server)+"|"+d.Fingerprint+"|"+d.Oracle] = true
		}
	}
	return st, nil
}

func (h *huntBench) snapshot() counters { return h.snap() }

// check requires the armed faults to have been found.
func (h *huntBench) check() error {
	if len(h.found) == 0 {
		return errors.New("hunt found no divergence with faults armed")
	}
	return nil
}

func (h *huntBench) close() {}
