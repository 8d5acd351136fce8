package shard

import "repro/internal/core"

// Open builds a ready-to-use sharded store: core.Open's one opening
// sequence with a Router composing the o.Shards engines (one shard-NNN
// subdirectory, AOF/WAL and expiry loop each) under one compliance
// middleware with a single audit trail — the topology the package comment
// describes. One shard still gets a router, which is how the differential
// matrix proves the router itself changes no answer. The returned DB
// implements core.BatchCreator — batched loads fan out per shard — unlike
// the unsharded Redis model, which keeps the paper's one-command-per-record
// load shape.
func Open(o core.Options) (core.DB, error) {
	return core.Open(o, func(engines []core.Engine) (core.Engine, error) { return New(engines) })
}
