package vvault

import (
	"fmt"
	"time"

	"github.com/v3storage/v3/internal/repl"
)

// resyncLoop catches a recovered replica up from the replication log,
// then returns it to service. It runs while the backend is in the
// Resync state and exits when the replica is clean (→ Up) or fails
// again (→ Down; the probe loop restarts recovery, and the cursor —
// which only advances when a replay pass commits — resumes exactly
// where the last attempt left off, no full-range re-scan).
//
// Each round asks the replica's consumer for a catch-up plan: coverage
// of the records above its cursor plus its out-of-band debt. On the
// fast path that is precise, incremental record replay; only when the
// log was truncated past the cursor does the plan fall back to the
// folded extent summary (or the full volume range). An empty plan means
// nothing was owed as of the call — run the durability barrier, then
// try to declare the replica clean.
//
// Convergence under concurrent writes: a write holds the replica's ioMu
// read lock from the moment it observes its state until its outcome is
// sequenced in the log. The final clean check here takes the ioMu write
// lock, so it cannot pass while such a write is still in flight; any
// write that completes later must have appended its record before the
// check, forcing another replay round.
func (v *Vault) resyncLoop(b *backend) {
	defer v.wg.Done()
	v.resyncs.Add(1)
	buf := make([]byte, v.tune.resyncChunk)
	for {
		if v.closed.Load() || b.state.Load() != stateResync {
			return
		}
		plan := b.cur.CatchUp()
		if len(plan.Extents) > 0 {
			if plan.Fallback {
				v.logf("vvault: resync of %s fell back to extent coverage (log truncated past cursor)", b.addr)
			}
			if !v.replayPlan(b, plan, buf) {
				return
			}
			continue
		}
		// Everything replayed so far: make it durable, then try to
		// declare the replica clean. Snapshot-first barrier — the commit
		// advances the watermark (and settles replayed debt) only if the
		// replica did not trip under the flush.
		bar := b.cur.BarrierBegin()
		if err := v.replayIO(b, ioFlush, 0, nil); err != nil {
			v.trip(b, fmt.Errorf("resync flush: %w", err))
			return
		}
		b.cur.BarrierCommit(bar)
		b.ioMu.Lock()
		done := b.cur.CaughtUp() && b.state.Load() == stateResync
		if done {
			b.mu.Lock()
			b.state.Store(stateUp)
			b.mu.Unlock()
			b.cur.SetLive(true)
			v.mirror.SetMask(b.idx, false)
			v.noteMaskChange()
		}
		b.ioMu.Unlock()
		if done {
			v.logf("vvault: backend %s resynced and serving reads again", b.addr)
			return
		}
		continue // new writes arrived during the flush; another round
	}
}

// replayPlan replays one catch-up plan onto the recovering replica,
// sourcing each chunk from the live replicas. It returns false when the
// resync loop must exit (vault closing, or the replica tripped again).
// A pass abandoned mid-way — source stall or replica failure — simply
// never commits: the cursor has not moved, so the next CatchUp resumes
// from the same position and net progress accounting skips what already
// landed.
func (v *Vault) replayPlan(b *backend, plan repl.Plan, buf []byte) bool {
	for _, e := range plan.Extents {
		cur := e.Off
		for cur < e.End {
			n := min(e.End-cur, int64(len(buf)))
			if err := v.Read(cur, buf[:n]); err != nil {
				// No live replica could source the data. The recovered
				// backend is fine — drop the pass and retry after a beat.
				v.logf("vvault: resync of %s stalled (source read: %v); will retry", b.addr, err)
				select {
				case <-v.done:
					return false
				case <-time.After(v.cfg.ProbeInterval):
				}
				return true
			}
			if err := v.replayIO(b, ioWrite, cur, buf[:n]); err != nil {
				v.trip(b, fmt.Errorf("resync write [%d,+%d): %w", cur, n, err))
				return false
			}
			v.resyncReplayed.Add(n)
			v.resyncedBytes.Add(b.cur.CountReplay(cur, n))
			cur += n
		}
	}
	b.cur.CommitReplay(plan)
	return true
}

// replayIO runs one sub-I/O — a replay write or the durability barrier —
// on the recovering replica's resync stream: background-lane when the peer
// granted one, so replay traffic queues in the server's background QoS
// lane instead of competing with live I/O. The caller trips on an error.
func (v *Vault) replayIO(b *backend, kind ioKind, off int64, data []byte) error {
	_, st := b.streams()
	f := fanout{v: v}
	f.add(b, st, kind, off, data)
	f.join(v.cfg.IOTimeout)
	return f.out(b.idx).err
}
