package sut

import (
	"morphstreamr/internal/ft/ftapi"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/storage"
	"morphstreamr/internal/types"
	"morphstreamr/internal/workload"
)

// The one server configuration every workload runs against.
const (
	Shards        = 2
	Rows          = 16384
	Workers       = 2
	CommitEvery   = 2
	SnapshotEvery = 8
	QueueCap      = 256
	// While kills are on, a whole-group kill lands once at least
	// KillEvery epochs were fed since the last one, on an epoch ep with
	// ep % SnapshotEvery == KillPhase, so each heal replays the same
	// depth past the last snapshot.
	KillEvery = 24
	KillPhase = 5
)

// Tenants are the server's tenants; the generator opens one connection
// per tenant.
var Tenants = []string{"t0", "t1"}

// Shape is the per-shard engine shape.
func Shape() types.RunShape {
	return types.RunShape{Workers: Workers, CommitEvery: CommitEvery, SnapshotEvery: SnapshotEvery}
}

// Devices builds fresh segment-store devices: one per shard plus the
// coordinator's.
func Devices(shards int) ([]storage.Device, storage.Device) {
	devs := make([]storage.Device, shards)
	for i := range devs {
		devs[i] = storage.NewSegStore(storage.SegConfig{})
	}
	return devs, storage.NewSegStore(storage.SegConfig{})
}

// NewGroup starts a fresh group of the given shape on fresh devices.
func NewGroup(shape types.RunShape, shards int) (*shard.Group, error) {
	cfg := GroupConfig(shape, shards)
	cfg.Devices, cfg.CoordDev = Devices(shards)
	return shard.NewGroup(cfg)
}

// GroupConfig is the shard group behind the server: MSR over GS rows
// with the fixed shape. Callers fill Devices, CoordDev and Obs.
func GroupConfig(shape types.RunShape, shards int) shard.Config {
	return shard.Config{
		GroupShape: types.GroupShape{RunShape: shape, Shards: shards},
		App:        workload.NewGSApp(Rows),
		Kind:       ftapi.MSR,
	}
}
