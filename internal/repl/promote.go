package repl

import (
	"fmt"
)

// Promotion describes a completed failover: the epoch the promoted node
// now fences with and the committed seq its new timeline starts from.
type Promotion struct {
	// Epoch is the new replication epoch — strictly greater than both the
	// follower's own and the last epoch its primary advertised.
	Epoch uint64 `json:"epoch"`
	// LastApplied is the committed seq at promotion, durable on this node:
	// the exact prefix of the old primary's history it carries into the
	// new epoch. Writes the old primary acknowledged beyond it (shipped or
	// not) are not part of the new timeline.
	LastApplied uint64 `json:"lastApplied"`
}

// Promote turns this follower into a primary, fenced against its old
// timeline. In order: replication is stopped (Close — no frame can land
// mid-promotion), everything applied is made durable, the epoch is
// durably advanced past both the local one and the last epoch the
// primary advertised, and only then is the write gate opened
// (SetReplica(false)). The ordering is the guarantee: a
// crash anywhere in between recovers either as a replica at the old
// epoch or as a not-yet-writable node at the new one — never as a
// writable primary holding a stale fencing token, which is how
// split-brain histories merge.
//
// If the epoch cannot be persisted the store stays a replica and the
// promotion fails; retry on a healthy node instead.
//
// The promoted store serves writes immediately. If a shipper
// (repl.Server) is running on this node it keeps streaming seamlessly —
// commits of the new epoch ride the same feed — but call its Disconnect
// so downstream followers re-handshake and adopt the new epoch now. The
// old primary, if it resurrects, is refused by the handshake
// (ErrFencedEpoch) and must rejoin as a follower via snapshot resync.
func (f *Follower) Promote() (Promotion, error) {
	if !f.s.IsReplica() {
		return Promotion{}, fmt.Errorf("repl: promote: store is not a replica")
	}
	f.Close() // idempotent; returns once the run loop has exited
	// The new timeline starts at the store's head, so the head must be on
	// stable storage before the epoch names it. The session settled its
	// last batch on the way out; this covers a head that got there by any
	// other road, and costs nothing when it is already durable.
	if err := f.s.WaitDurable(f.s.CommitSeq()); err != nil {
		return Promotion{}, fmt.Errorf("repl: promote: %w", err)
	}
	floor := f.Status().PrimaryEpoch
	epoch, err := f.s.AdvanceEpoch(floor)
	if err != nil {
		return Promotion{}, fmt.Errorf("repl: promote: %w", err)
	}
	f.s.SetReplica(false)
	// The run loop is done (Close waited for it), so the single-writer
	// rule on setStatus passes to us.
	f.setStatus(func(st *Status) {
		st.Connected = false
		st.Fenced = false
	})
	f.logf("repl: promoted to primary at epoch %d (seq %d)", epoch, f.s.CommitSeq())
	return Promotion{Epoch: epoch, LastApplied: f.s.CommitSeq()}, nil
}
