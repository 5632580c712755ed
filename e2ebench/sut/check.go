package sut

import (
	"fmt"
	"sort"

	"morphstreamr/internal/oracle"
	"morphstreamr/internal/partition"
	"morphstreamr/internal/shard"
	"morphstreamr/internal/store"
	"morphstreamr/internal/types"
)

// Replay re-executes a fed epoch sequence through the shard group
// protocol serially: one sequential oracle per shard, cross-shard
// frontiers propagated as value-diff deltas at every barrier, replication
// puts ordered before each epoch's real events. It follows
// shard.GroupOracle, with two differences that let it audit a whole
// benchmark run:
//
//   - it keeps only the current state and a 16-byte digest per output,
//     where GroupOracle retains a full state image per epoch (about 1.3 MB
//     per epoch at 16384 rows; a run feeds about 10^4 epochs);
//   - an epoch with no events anchors its replication just past the
//     highest sequence routed so far, as the live coordinator does, where
//     GroupOracle rejects an empty epoch that carries replication. The
//     server feeds such heartbeat epochs whenever acks wait on a commit.
//
// The package tests check that both agree wherever GroupOracle applies.
type Replay struct {
	app    *shard.App
	specs  []types.TableSpec
	router *partition.Ranges
	orcs   []*oracle.Oracle
	// prev[s] holds shard s's owned values as of the last barrier, for
	// the keys written since the run began; other owned keys still hold
	// their initial values.
	prev     []map[types.Key]types.Value
	deltas   [][]kv
	seqFloor uint64
	realFed  []int
	outs     [][]digest
	epochs   int
}

type kv struct {
	k types.Key
	v types.Value
}

// digest identifies one output by event sequence and content hash.
type digest struct {
	seq  uint64
	hash uint64
}

// maxReplicateKeys matches the coordinator's replication chunking. Puts
// never abort and touch distinct keys, so the chunking cannot change a
// state; it is kept only so replayed sequences resemble the live ones.
const maxReplicateKeys = 100

// NewReplay starts a replay of app over shards shards.
func NewReplay(app types.App, shards int) *Replay {
	w := shard.WrapApp(app)
	r := &Replay{
		app:     w,
		specs:   app.Tables(),
		router:  partition.NewRanges(app.Tables(), shards),
		prev:    make([]map[types.Key]types.Value, shards),
		realFed: make([]int, shards),
		outs:    make([][]digest, shards),
	}
	for s := 0; s < shards; s++ {
		r.orcs = append(r.orcs, oracle.New(w))
		r.prev[s] = map[types.Key]types.Value{}
	}
	return r
}

func (r *Replay) init(k types.Key) types.Value {
	for _, sp := range r.specs {
		if sp.ID == k.Table {
			return sp.Init
		}
	}
	return 0
}

// Extend replays one more group epoch.
func (r *Replay) Extend(batch []types.Event) error {
	subs := make([][]types.Event, len(r.orcs))
	minSeq := r.seqFloor
	for i, ev := range batch {
		if len(ev.Keys) == 0 {
			return fmt.Errorf("replay: event %d has no routing key", ev.Seq)
		}
		s := r.router.Of(ev.Keys[0])
		subs[s] = append(subs[s], ev)
		if i == 0 || ev.Seq < minSeq {
			minSeq = ev.Seq
		}
		if ev.Seq+1 > r.seqFloor {
			r.seqFloor = ev.Seq + 1
		}
	}
	written := make([]map[types.Key]bool, len(r.orcs))
	for s, orc := range r.orcs {
		if r.deltas != nil {
			reps, err := r.replication(s, minSeq)
			if err != nil {
				return err
			}
			for _, ev := range reps {
				orc.Apply(ev)
			}
		}
		written[s] = map[types.Key]bool{}
		for _, ev := range subs[s] {
			txn := r.app.Preprocess(ev)
			for _, op := range txn.Ops {
				written[s][op.Key] = true
			}
			out := r.app.Postprocess(orc.ExecuteTxn(&txn))
			r.outs[s] = append(r.outs[s], digest{ev.Seq, hashOutput(out)})
		}
		r.realFed[s] += len(subs[s])
	}
	// Barrier: an owned value can change only through the shard's own
	// writes, so diffing the written keys equals diffing the partition.
	deltas := make([][]kv, len(r.orcs))
	for s, orc := range r.orcs {
		for k := range written[s] {
			if r.router.Of(k) != s {
				continue
			}
			v := orc.Value(k)
			old, ok := r.prev[s][k]
			if !ok {
				old = r.init(k)
			}
			if v != old {
				deltas[s] = append(deltas[s], kv{k, v})
				r.prev[s][k] = v
			}
		}
	}
	r.deltas = deltas
	r.epochs++
	return nil
}

// replication builds shard dst's replication events from the other
// shards' last deltas, sequenced just below minSeq.
func (r *Replay) replication(dst int, minSeq uint64) ([]types.Event, error) {
	merged := map[types.Key]types.Value{}
	for src, d := range r.deltas {
		if src == dst {
			continue
		}
		for _, e := range d {
			merged[e.k] = e.v
		}
	}
	if len(merged) == 0 {
		return nil, nil
	}
	keys := make([]types.Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Less(keys[j]) })
	n := (len(keys) + maxReplicateKeys - 1) / maxReplicateKeys
	if uint64(n) > minSeq {
		return nil, fmt.Errorf("replay: %d replication events do not fit below sequence %d", n, minSeq)
	}
	events := make([]types.Event, 0, n)
	for i := 0; i < n; i++ {
		lo, hi := i*maxReplicateKeys, (i+1)*maxReplicateKeys
		if hi > len(keys) {
			hi = len(keys)
		}
		vals := make([]types.Value, 0, hi-lo)
		for _, k := range keys[lo:hi] {
			vals = append(vals, merged[k])
		}
		events = append(events, types.Event{
			Seq: minSeq - uint64(n) + uint64(i), Kind: shard.KindReplicate,
			Keys: keys[lo:hi], Vals: vals,
		})
	}
	return events, nil
}

// RealEvents returns how many application events were routed to shard s.
func (r *Replay) RealEvents(s int) int { return r.realFed[s] }

// CheckState compares shard s's store with the replayed state, row by row.
func (r *Replay) CheckState(s int, st *store.Store) error {
	var diffs []string
	for _, sp := range r.specs {
		for row := uint32(0); row < sp.Rows; row++ {
			k := types.Key{Table: sp.ID, Row: row}
			if got, want := st.Get(k), r.orcs[s].Value(k); got != want {
				diffs = append(diffs, fmt.Sprintf("%v: got %d want %d", k, got, want))
				if len(diffs) == 3 {
					break
				}
			}
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("replay: shard %d state diverges after epoch %d: %v", s, r.epochs, diffs)
	}
	return nil
}

// CheckOutputs verifies shard s's exactly-once delivery: delivered (the
// shard's application outputs across all incarnations, replication
// acknowledgements excluded) holds no duplicate and no unknown event,
// every output equals the replayed one, and delivered plus pending
// accounts for every application event routed to the shard.
func (r *Replay) CheckOutputs(s int, delivered []types.Output, pending int) error {
	want := r.outs[s]
	sort.Slice(want, func(i, j int) bool { return want[i].seq < want[j].seq })
	got := make([]digest, 0, len(delivered))
	for _, out := range delivered {
		if shard.IsReplication(out) {
			return fmt.Errorf("replay: shard %d: replication output %d in application stream", s, out.EventSeq)
		}
		got = append(got, digest{out.EventSeq, hashOutput(out)})
	}
	sort.Slice(got, func(i, j int) bool { return got[i].seq < got[j].seq })
	j := 0
	for i, g := range got {
		if i > 0 && got[i-1].seq == g.seq {
			return fmt.Errorf("replay: shard %d: output for event %d delivered twice", s, g.seq)
		}
		for j < len(want) && want[j].seq < g.seq {
			j++
		}
		if j == len(want) || want[j].seq != g.seq {
			return fmt.Errorf("replay: shard %d: output for unknown event %d delivered", s, g.seq)
		}
		if want[j].hash != g.hash {
			return fmt.Errorf("replay: shard %d: output for event %d diverges from the replay", s, g.seq)
		}
	}
	if len(got)+pending != len(want) {
		return fmt.Errorf("replay: shard %d: delivered %d + pending %d outputs != %d events", s, len(got), pending, len(want))
	}
	return nil
}

// hashOutput digests an output's sequence, kind and values (FNV-1a).
func hashOutput(out types.Output) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	word := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	word(out.EventSeq)
	word(uint64(out.Kind))
	for _, v := range out.Vals {
		word(uint64(v))
	}
	return h
}
