package main

import (
	"context"
	"database/sql"
	"fmt"

	"divsql/internal/corpus"
	"divsql/internal/dialect"
	"divsql/internal/difftest"
	"divsql/internal/middleware"
	"divsql/internal/obs"
	"divsql/internal/server"
	"divsql/internal/shard"
	"divsql/internal/wire"
	"divsql/sqldriver"
)

// replicaSet is the -servers list of every deployment the benchmark runs.
var replicaSet = []dialect.ServerName{dialect.PG, dialect.OR, dialect.MS}

// deployment is one running `divsqld -mode diverse -servers PG,OR,MS
// [-shards N]`, in process on a loopback listener, with a database/sql
// pool attached over the wiremux: DSN.
//
// It is assembled from the same parts and defaults as divsql.OpenDiverse
// and divsql.OpenSharded (every replica with the full fault corpus,
// middleware.DefaultConfig) rather than through them, so that a traced
// run can decorate the shard.Backends before shard.New takes them.
type deployment struct {
	servers []*server.Server // every replica, shard-major
	wire    *wire.Server
	reg     *obs.Registry // the registry divsqld serves on /metrics
	db      *sql.DB
	t       *tracer // nil when untraced
}

func init() { sqldriver.Register() }

// deploy starts the stack. band selects PK-band partitioning when shards
// > 1; t, when non-nil, decorates the endpoint and the backends.
func deploy(shards int, band map[string]string, t *tracer) (*deployment, error) {
	d := &deployment{t: t}
	var sets []*middleware.DiverseServer
	var backends []shard.Backend
	for i := 0; i < shards; i++ {
		var replicas []*server.Server
		for _, name := range replicaSet {
			srv, err := server.New(name, corpus.AllFaults())
			if err != nil {
				return nil, fmt.Errorf("open %s: %w", name, err)
			}
			replicas = append(replicas, srv)
		}
		set, err := middleware.New(middleware.DefaultConfig(), replicas...)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, replicas...)
		sets = append(sets, set)
		if t != nil {
			backends = append(backends, &tracedBackend{DiverseServer: set, t: t})
		} else {
			backends = append(backends, set)
		}
	}

	var exec endpoint
	d.reg = obs.NewRegistry()
	if shards == 1 {
		exec = sets[0]
		d.reg.Register(sets[0].MetricsCollectors()...)
	} else {
		r, err := shard.New(shard.Config{BandColumns: band}, backends...)
		if err != nil {
			return nil, err
		}
		exec = r
		d.reg.Register(r.MetricsCollectors()...)
	}
	if t != nil {
		exec = &tracedEndpoint{endpoint: exec, t: t}
	}
	d.wire = wire.NewServer(exec)
	d.reg.Register(d.wire.MetricsCollector(), difftest.SharedTelemetry().MetricsCollector())
	d.wire.ServeMetrics(d.reg)
	addr, err := d.wire.Listen("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.db, err = sql.Open(sqldriver.DriverName, "wiremux:"+addr)
	if err != nil {
		_ = d.wire.Close()
		return nil, err
	}
	return d, nil
}

// conn opens one client connection (one server-side session) and
// returns it with the endpoint session id its spans carry. Callers open
// connections one at a time, so the last session the endpoint opened is
// this connection's.
func (d *deployment) conn(ctx context.Context) (*sql.Conn, int, error) {
	c, err := d.db.Conn(ctx)
	if err != nil {
		return nil, 0, err
	}
	owner := -1
	if d.t != nil {
		owner = int(d.t.lastOpened.Load())
	}
	return c, owner, nil
}

// Series names under which snapshot adds server.PlanCacheStats, summed
// over every replica, to the registry scrape.
const (
	planCacheHits    = "perfbench_plan_cache_hits"
	planCacheLookups = "perfbench_plan_cache_lookups"
)

// snapshot scrapes the deployment's registry — the collectors divsqld
// registers — and adds the replicas' plan-cache counters.
func (d *deployment) snapshot() counters {
	c := scrape(d.reg)
	for _, s := range d.servers {
		cs := s.PlanCacheStats()
		c[planCacheHits] += float64(cs.Hits)
		c[planCacheLookups] += float64(cs.Hits + cs.Misses)
	}
	return c
}

func (d *deployment) close() {
	_ = d.db.Close()   // closes the client sessions; nothing to report at teardown
	_ = d.wire.Close() // likewise
}
