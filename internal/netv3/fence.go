package netv3

import "slices"

// fence is the server's admission state for client sessions: for each
// client id, the highest incarnation admitted and the sessions of that id
// still live. A client draws a random id at Dial and counts its dials in
// wire.Connect.Incarnation, so a session that outlives its client's link —
// its loop still decoding frames the client sent before it gave the link
// up, or its scheduler tasks still running — carries a lower incarnation
// than the session the client replays onto. admit hands every such session
// over to be quiesced before the new one serves a frame; without that, a
// stale copy of a write could land after the replay and after the writes
// that followed it (DESIGN.md, "Client core and fence").
//
// It is plain data with no lock: the server calls it under fenceMu, the
// protocol explorer directly. Id 0 is anonymous and never fenced.
type fence[S comparable] struct {
	clients map[uint64]fenceEntry[S]
}

type fenceEntry[S comparable] struct {
	top  uint64 // highest incarnation admitted
	live []S    // sessions admitted that have not left
}

// admit decides session s's Connect, incarnation inc of client id. While a
// session of the id lives, an incarnation no higher than the last admitted
// is refused. Otherwise s joins, and every other live session of the id —
// all of them lower — is returned: the caller quiesces them before s runs
// its first frame. An id none of whose sessions lives is forgotten, so a
// late Connect of a lower incarnation is then admitted; it carries nothing
// stale, since a client sends requests only on a connection whose
// handshake it completed, and it gives up a connection for good.
func (f *fence[S]) admit(id, inc uint64, s S) (stale []S, ok bool) {
	if id == 0 {
		return nil, true
	}
	if f.clients == nil {
		f.clients = map[uint64]fenceEntry[S]{}
	}
	e, known := f.clients[id]
	if known && inc <= e.top {
		return nil, false
	}
	// The entry's live list is a fresh copy, so the old one is the caller's.
	f.clients[id] = fenceEntry[S]{top: inc, live: append(slices.Clip(e.live), s)}
	return e.live, true
}

// leave retires s, a session of client id that is quiet for good: its
// loop has exited and every scheduler task it started has finished.
func (f *fence[S]) leave(id uint64, s S) {
	e := f.clients[id]
	if e.live = slices.DeleteFunc(e.live, func(x S) bool { return x == s }); len(e.live) > 0 {
		f.clients[id] = e
	} else {
		delete(f.clients, id)
	}
}
