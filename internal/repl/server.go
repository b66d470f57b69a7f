package repl

import (
	"bufio"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Server is the primary-side WAL shipper: it accepts follower
// connections, answers each handshake with the cheapest catch-up that is
// still exact (log offset when the frames are on disk, full snapshot
// otherwise), then streams every committed frame live, with heartbeats
// carrying the head seq so followers can bound their staleness even when
// no writes happen.
//
// One subscription per connection; a follower that cannot drain the feed
// is disconnected (never backpressuring the primary's commit path) and
// catches up again on reconnect.
type Server struct {
	s *store.Store

	// Heartbeat is the idle-feed heartbeat period (default 500ms). Set
	// before Start.
	Heartbeat time.Duration
	// Logf, when set, receives connection lifecycle messages.
	Logf func(format string, args ...any)

	ln     net.Listener
	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
	closed atomic.Bool
	stop   chan struct{}
}

// errFeedEnough aborts a WALFrames scan that has reached the
// subscription cut; everything further comes from the live feed.
var errFeedEnough = errors.New("caught up to the subscription cut")

// NewServer returns a shipper for the given primary store. Call Start to
// begin accepting followers.
func NewServer(s *store.Store) *Server {
	return &Server{
		s:         s,
		Heartbeat: 500 * time.Millisecond,
		conns:     make(map[net.Conn]struct{}),
		stop:      make(chan struct{}),
	}
}

// Start listens on addr (e.g. "127.0.0.1:0") and serves followers until
// Close. It returns the bound address.
func (srv *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	srv.ln = ln
	srv.wg.Add(1)
	go srv.acceptLoop()
	return ln.Addr().String(), nil
}

// Disconnect drops every live follower session without stopping the
// listener; followers reconnect immediately and re-handshake. Call it
// after promoting the store this server ships (a relay follower that
// was just promoted, or any node whose epoch advanced): the fresh
// handshakes observe the new epoch, so downstream followers are fenced
// into adopting it now rather than at their next natural reconnect.
func (srv *Server) Disconnect() {
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
}

// Close stops accepting, disconnects every follower and waits for the
// per-connection goroutines to finish.
func (srv *Server) Close() error {
	if srv.closed.Swap(true) {
		return nil
	}
	close(srv.stop)
	var err error
	if srv.ln != nil {
		err = srv.ln.Close()
	}
	srv.mu.Lock()
	for c := range srv.conns {
		c.Close()
	}
	srv.mu.Unlock()
	srv.wg.Wait()
	return err
}

func (srv *Server) logf(format string, args ...any) {
	if srv.Logf != nil {
		srv.Logf(format, args...)
	}
}

func (srv *Server) acceptLoop() {
	defer srv.wg.Done()
	for {
		conn, err := srv.ln.Accept()
		if err != nil {
			return // listener closed
		}
		srv.mu.Lock()
		if srv.closed.Load() {
			srv.mu.Unlock()
			conn.Close()
			return
		}
		srv.conns[conn] = struct{}{}
		srv.mu.Unlock()
		srv.wg.Add(1)
		go func() {
			defer srv.wg.Done()
			srv.handle(conn)
			srv.mu.Lock()
			delete(srv.conns, conn)
			srv.mu.Unlock()
		}()
	}
}

// handle drives one follower connection: handshake, catch-up, live feed.
// Any error tears the connection down; the follower reconnects and the
// handshake re-derives the right catch-up.
func (srv *Server) handle(conn net.Conn) {
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}

	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	lastSeq, followerEpoch, flags, err := readHello(conn)
	if err != nil {
		srv.logf("repl: %s: handshake: %v", conn.RemoteAddr(), err)
		return
	}
	conn.SetReadDeadline(time.Time{})

	bw := bufio.NewWriterSize(conn, 256<<10)

	// Fencing, before any catch-up plan. Seqs are only comparable within
	// one epoch, so a cross-epoch session has exactly one sound shape:
	// a lower-epoch follower asking for a wholesale snapshot (which
	// carries our epoch and replaces its timeline). Everything else is
	// refused with a status the follower turns into a typed error.
	epoch := srv.s.Epoch()
	fenceStatus := statusOK
	switch {
	case followerEpoch > epoch:
		fenceStatus = statusFencedAhead // we are the stale one; never feed it
	case followerEpoch < epoch && flags&flagSnapshot == 0:
		fenceStatus = statusFencedStale // must resync, not offset-catch-up
	}
	if fenceStatus != statusOK {
		conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
		if err := writeHelloReply(bw, fenceStatus, srv.s.CommitSeq(), epoch); err == nil {
			bw.Flush()
		}
		srv.logf("repl: %s: fenced (status %d): local epoch %d, follower epoch %d",
			conn.RemoteAddr(), fenceStatus, epoch, followerEpoch)
		return
	}

	// Subscribe BEFORE deciding how to catch up: the cut seq plus the
	// feed cover every commit from the cut on, so catch-up only has to
	// reach the cut — no window where a commit could fall between.
	sub, err := srv.s.SubscribeCommits(4096)
	if err != nil {
		return
	}
	defer sub.Cancel()
	cut := sub.FromSeq

	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := writeHelloReply(bw, statusOK, cut, epoch); err != nil {
		return
	}

	switch {
	case flags&flagSnapshot != 0 || lastSeq > cut:
		// Asked for a snapshot, or the follower claims to be ahead of us
		// (a diverged timeline, e.g. a repointed ex-primary): wholesale
		// resync is the only exact answer.
		if err := srv.sendSnapshot(conn, bw); err != nil {
			srv.logf("repl: %s: snapshot: %v", conn.RemoteAddr(), err)
			return
		}
	case lastSeq < cut:
		// The log is about to be read up to the cut, and under SyncAlways
		// the newest frames in it may be installed but not yet fsynced.
		// One barrier per handshake keeps the feed's promise here too.
		if err := srv.s.WaitDurable(cut); err != nil {
			srv.logf("repl: %s: offset catch-up: %v", conn.RemoteAddr(), err)
			return
		}
		sent := lastSeq
		err := srv.s.WALFrames(lastSeq+1, func(seq uint64, payload []byte) error {
			if seq > cut {
				return errFeedEnough
			}
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := writeMsg(bw, msgFrame, payload); err != nil {
				return err
			}
			sent = seq
			return nil
		})
		if err != nil && !errors.Is(err, errFeedEnough) && !errors.Is(err, store.ErrSeqGone) {
			srv.logf("repl: %s: offset catch-up: %v", conn.RemoteAddr(), err)
			return
		}
		if sent < cut {
			// The log no longer reaches back to the follower's seq (or its
			// readable tail fell short of the cut): snapshot instead. The
			// frames already sent are harmless — the follower skips
			// everything at or below the snapshot seq.
			if err := srv.sendSnapshot(conn, bw); err != nil {
				srv.logf("repl: %s: snapshot: %v", conn.RemoteAddr(), err)
				return
			}
		}
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := bw.Flush(); err != nil {
		return
	}

	srv.feed(conn, bw, sub)
}

// feed streams live frames and heartbeats until the connection, the
// subscription, or the server dies.
func (srv *Server) feed(conn net.Conn, bw *bufio.Writer, sub *store.CommitSub) {
	hb := time.NewTicker(srv.Heartbeat)
	defer hb.Stop()
	for {
		select {
		case <-srv.stop:
			return
		case fr, ok := <-sub.C:
			if !ok {
				// Feed overflow (slow follower) or store closed: end the
				// session; the follower re-handshakes and catches up.
				srv.logf("repl: %s: feed closed (overflow or shutdown)", conn.RemoteAddr())
				return
			}
			// Never ship a frame the primary could still lose: wait for
			// the group-commit fsync to cover it first.
			if err := srv.s.WaitDurable(fr.Seq); err != nil {
				return
			}
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := writeMsg(bw, msgFrame, fr.Payload); err != nil {
				return
			}
			// Drain whatever else is already buffered before flushing, so
			// a burst of commits rides one syscall.
			for drained := false; !drained; {
				select {
				case fr, ok := <-sub.C:
					if !ok {
						bw.Flush()
						return
					}
					if err := srv.s.WaitDurable(fr.Seq); err != nil {
						return
					}
					if err := writeMsg(bw, msgFrame, fr.Payload); err != nil {
						return
					}
				default:
					drained = true
				}
			}
			if err := bw.Flush(); err != nil {
				return
			}
		case <-hb.C:
			conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
			if err := writeMsg(bw, msgHeartbeat, u64payload(srv.s.CommitSeq())); err != nil {
				return
			}
			if err := bw.Flush(); err != nil {
				return
			}
		}
	}
}

// sendSnapshot streams a pinned consistent snapshot: begin (with seq),
// chunks, end. Commits proceed concurrently; the pinned version is
// immutable.
func (srv *Server) sendSnapshot(conn net.Conn, bw *bufio.Writer) error {
	seq, write := srv.s.PinnedSnapshot()
	// The pinned version is the current one, possibly newer than the cut
	// and not yet fsynced: never ship state a crash here would lose.
	if err := srv.s.WaitDurable(seq); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	if err := writeMsg(bw, msgSnapBegin, u64payload(seq)); err != nil {
		return err
	}
	cw := &chunkWriter{conn: conn, bw: bw}
	if err := write(cw); err != nil {
		return err
	}
	if err := cw.flushChunk(); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	return writeMsg(bw, msgSnapEnd, nil)
}

// chunkWriter adapts the snapshot encoder's io.Writer to msgSnapChunk
// messages, buffering up to chunkSize bytes per message so the chunk
// count stays proportional to the snapshot size, not the encoder's write
// granularity.
type chunkWriter struct {
	conn net.Conn
	bw   *bufio.Writer
	buf  []byte
}

const snapChunkSize = 256 << 10

func (cw *chunkWriter) Write(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		room := snapChunkSize - len(cw.buf)
		if room == 0 {
			if err := cw.flushChunk(); err != nil {
				return n - len(p), err
			}
			room = snapChunkSize
		}
		if room > len(p) {
			room = len(p)
		}
		cw.buf = append(cw.buf, p[:room]...)
		p = p[room:]
	}
	return n, nil
}

func (cw *chunkWriter) flushChunk() error {
	if len(cw.buf) == 0 {
		return nil
	}
	cw.conn.SetWriteDeadline(time.Now().Add(30 * time.Second))
	err := writeMsg(cw.bw, msgSnapChunk, cw.buf)
	cw.buf = cw.buf[:0]
	return err
}
