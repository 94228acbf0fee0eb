package fleet

import (
	"context"

	"deepmc/internal/anacache"
	"deepmc/internal/core"
	"deepmc/internal/report"
)

// Transport is the shard execution boundary.  The coordinator only
// ever talks to shards through it, so the in-process goroutine shards
// and the HTTP transport (one `deepmc serve -shard` daemon per shard)
// are interchangeable: Analyze must honor ctx — a canceled shard
// context is how the coordinator kills a shard out from under its
// work — Probe is the health check the breaker prober drives (an
// in-process shard is healthy by construction; an HTTP shard answers
// /readyz), and Close releases whatever the transport holds.
type Transport interface {
	Analyze(ctx context.Context, job Job) (*report.Report, error)
	Probe(ctx context.Context) error
	Close() error
}

// localTransport runs analyses in-process with a shard-local
// memory-only cache backed by the fleet's shared verdict tier.  This
// mirrors the deployment shape exactly — per-shard hot cache, shared
// warm tier — with the network hop elided.
type localTransport struct {
	cache *anacache.Cache
}

// newLocalTransport builds a fresh shard cache wired to the tier.  A
// restarted shard gets a new one: its memory is gone (that is what a
// restart means) but it re-warms from the tier on first touch.
func newLocalTransport(tier *anacache.Cache) (*localTransport, error) {
	c, err := anacache.New("")
	if err != nil {
		return nil, err
	}
	if tier != nil {
		c.SetBacking(tier)
	}
	return &localTransport{cache: c}, nil
}

func (t *localTransport) Analyze(ctx context.Context, job Job) (*report.Report, error) {
	cfg := job.Config
	cfg.Cache = t.cache
	return core.AnalyzeCtx(ctx, job.Module, cfg)
}

// Probe: an in-process shard that exists is healthy — liveness is the
// coordinator's own kill flag, which the prober checks separately.
func (t *localTransport) Probe(ctx context.Context) error { return nil }

func (t *localTransport) Close() error { return nil }
