package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/durable"
	"repro/internal/switchd"
	"repro/internal/switchd/api"
)

// DefaultSyncTimeout bounds how long an acknowledged batch may wait for
// the standby before the pair degrades to asynchronous shipping.
const DefaultSyncTimeout = 2 * time.Second

// DefaultHeartbeat is the idle-stream liveness interval.
const DefaultHeartbeat = 250 * time.Millisecond

// ServerConfig configures a shard primary's replication side.
type ServerConfig struct {
	// Shard is this node's shard index; handshakes for any other shard
	// are rejected (a misrouted standby must not apply a foreign log).
	Shard int

	// SyncTimeout bounds Commit's wait for a standby ack. Zero means
	// DefaultSyncTimeout; negative disables the semi-sync barrier
	// entirely (pure async shipping).
	SyncTimeout time.Duration

	// Heartbeat is the interval between liveness frames on an idle
	// stream. Zero means DefaultHeartbeat.
	Heartbeat time.Duration

	Logger *slog.Logger
}

// Server is the primary's half of log shipping: it accepts standby
// connections, streams the shard's WAL from each standby's resume
// point (bootstrapping with a state snapshot when the resume point was
// pruned), and — installed as the durable plane's Committer — holds
// group-commit acknowledgement until the standby has fsynced the
// batch, bounded by SyncTimeout.
type Server struct {
	cfg ServerConfig

	ctl *switchd.Controller
	wal *durable.Plane

	mu       sync.Mutex
	conns    map[*repConn]struct{}
	maxAcked uint64
	ackWait  chan struct{} // closed+replaced whenever maxAcked or membership changes
	closed   bool
	ln       net.Listener

	syncTimeouts atomic.Uint64
	lastAckNs    atomic.Int64

	wg sync.WaitGroup
}

// repConn is one connected standby. Its writers are the catch-up
// stream, the group-commit leaders once the stream is caught up (ship),
// and the heartbeat; every write to the socket carries a deadline
// (deadlineWriter).
type repConn struct {
	c    net.Conn
	bw   *bufio.Writer
	wmu  sync.Mutex // serialises the writers' frames
	done chan struct{}
	once sync.Once
}

// errStreamClosed is a write to a standby stream that has been dropped.
var errStreamClosed = errors.New("cluster: standby stream closed")

func (rc *repConn) shutdown() {
	rc.once.Do(func() {
		close(rc.done)
		rc.c.Close()
	})
}

// send writes frames under the write lock, flushing them when flush is
// set (frames may be nil: flush only). A write that fails, on a
// dropped stream or past its deadline, drops the standby: it
// reconnects and catches up from the segment files.
func (rc *repConn) send(flush bool, frames func(*bufio.Writer) error) error {
	rc.wmu.Lock()
	defer rc.wmu.Unlock()
	select {
	case <-rc.done:
		return errStreamClosed
	default:
	}
	var err error
	if frames != nil {
		err = frames(rc.bw)
	}
	if err == nil && flush {
		err = rc.bw.Flush()
	}
	if err != nil {
		rc.shutdown()
	}
	return err
}

// ship writes one published batch as record frames and flushes it: the
// group-commit leader calls it before its fsync once the stream is
// caught up (durable.Follower.Handoff).
func (rc *repConn) ship(batch [][]byte) error {
	return rc.send(true, func(bw *bufio.Writer) error {
		for _, payload := range batch {
			if err := writePayload(bw, frameRecord, payload); err != nil {
				return err
			}
		}
		return nil
	})
}

// writeChunk bounds the bytes one socket write may carry under one
// deadline.
const writeChunk = 1 << 16

// deadlineWriter gives every write to a standby's socket a deadline d
// away, so a standby that stops draining its socket fails the write
// instead of stalling the writer: the group-commit leader ships caught-up
// batches itself and must not wait on one standby. A long write (a
// snapshot frame) goes out in chunks, each with a fresh deadline, so
// only a stalled socket fails, not a slow one.
type deadlineWriter struct {
	c net.Conn
	d time.Duration
}

func (w deadlineWriter) Write(b []byte) (int, error) {
	n := 0
	for n < len(b) {
		w.c.SetWriteDeadline(time.Now().Add(w.d))
		m, err := w.c.Write(b[n:min(len(b), n+writeChunk)])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// NewServer builds a replication server. Call Attach with the shard's
// controller before Serve; install (*Server).Commit as the controller's
// WALCommitter to get the semi-sync acknowledgement barrier.
func NewServer(cfg ServerConfig) *Server {
	if cfg.SyncTimeout == 0 {
		cfg.SyncTimeout = DefaultSyncTimeout
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = DefaultHeartbeat
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	return &Server{
		cfg:     cfg,
		conns:   make(map[*repConn]struct{}),
		ackWait: make(chan struct{}),
	}
}

// Attach binds the server to its shard controller (whose WAL it
// streams) and registers the server as the controller's replication
// health probe. The controller must have its durable plane open.
func (s *Server) Attach(ctl *switchd.Controller) error {
	wal := ctl.WAL()
	if wal == nil {
		return fmt.Errorf("cluster: controller has no durable plane; replication requires -data")
	}
	s.ctl = ctl
	s.wal = wal
	ctl.SetReplicationProbe(s.Health)
	return nil
}

// Serve accepts standby connections on ln until Close. It returns after
// the accept loop exits; per-connection goroutines are waited for by
// Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("cluster: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.handleConn(c)
		}()
	}
}

// Commit is the durable plane's Committer: called after each group
// commit's fsync with the batch's last sequence, it blocks until a
// standby acknowledges durability of every record up to upTo, the
// timeout elapses (degrade to async, counted), or no standby is
// connected (nothing to wait for — a lone primary serves normally).
func (s *Server) Commit(upTo uint64) {
	if s.cfg.SyncTimeout < 0 {
		return
	}
	deadline := time.Now().Add(s.cfg.SyncTimeout)
	s.mu.Lock()
	for {
		if s.closed || len(s.conns) == 0 || s.maxAcked >= upTo {
			s.mu.Unlock()
			return
		}
		ch := s.ackWait
		s.mu.Unlock()
		wait := time.Until(deadline)
		if wait <= 0 {
			s.syncTimeouts.Add(1)
			s.cfg.Logger.Warn("replication ack timeout; batch acknowledged async",
				"shard", s.cfg.Shard, "up_to", upTo)
			return
		}
		t := time.NewTimer(wait)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
		}
		s.mu.Lock()
	}
}

// wake closes and replaces ackWait; callers hold s.mu.
func (s *Server) wakeLocked() {
	close(s.ackWait)
	s.ackWait = make(chan struct{})
}

// AckedSeq returns the highest sequence any standby has acknowledged
// as durable.
func (s *Server) AckedSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxAcked
}

// Standbys returns the number of connected standbys.
func (s *Server) Standbys() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.conns)
}

// SyncTimeouts returns how many group commits degraded to async.
func (s *Server) SyncTimeouts() uint64 { return s.syncTimeouts.Load() }

// Health snapshots the primary's replication state for /v1/health and
// /metrics.
func (s *Server) Health() *api.ReplicationHealth {
	s.mu.Lock()
	standbys := len(s.conns)
	acked := s.maxAcked
	s.mu.Unlock()
	synced := uint64(0)
	if s.wal != nil {
		synced = s.wal.SyncedSeq()
	}
	rh := &api.ReplicationHealth{
		Role:         api.RolePrimary,
		Shard:        s.cfg.Shard,
		Connected:    standbys > 0,
		Standbys:     standbys,
		SyncedSeq:    synced,
		AckedSeq:     acked,
		SyncTimeouts: s.syncTimeouts.Load(),
	}
	if synced > acked {
		rh.LagRecords = synced - acked
		if t := s.lastAckNs.Load(); t > 0 {
			rh.LagSeconds = time.Since(time.Unix(0, t)).Seconds()
		}
	}
	return rh
}

// Close stops accepting, tears down every standby stream, and wakes any
// Commit waiter (which then sees zero connections and returns).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]*repConn, 0, len(s.conns))
	for rc := range s.conns {
		conns = append(conns, rc)
	}
	s.wakeLocked()
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, rc := range conns {
		rc.shutdown()
	}
	s.wg.Wait()
	return nil
}

// handleConn owns one standby stream: handshake, then a record loop
// (with snapshot bootstrap when the resume point is pruned), a
// heartbeat ticker, and an ack reader.
func (s *Server) handleConn(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(c, 1<<16)
	// A standby that stops reading fails the writes after one sync
	// timeout: the primary's semi-sync barrier degrades on that bound
	// too.
	wd := s.cfg.SyncTimeout
	if wd <= 0 {
		wd = DefaultSyncTimeout
	}
	bw := bufio.NewWriterSize(deadlineWriter{c: c, d: wd}, 1<<16)

	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	typ, payload, err := readFrame(br)
	if err != nil || typ != frameHandshake {
		c.Close()
		return
	}
	var hs handshakeMsg
	if err := json.Unmarshal(payload, &hs); err != nil {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})

	if reason := s.admit(hs); reason != "" {
		writeFrame(bw, frameReject, rejectMsg{Reason: reason})
		bw.Flush()
		c.Close()
		s.cfg.Logger.Warn("standby rejected", "shard", s.cfg.Shard, "reason", reason)
		return
	}

	rc := &repConn{c: c, bw: bw, done: make(chan struct{})}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		c.Close()
		return
	}
	s.conns[rc] = struct{}{}
	s.mu.Unlock()
	s.cfg.Logger.Info("standby connected",
		"shard", s.cfg.Shard, "remote", c.RemoteAddr().String(), "have_seq", hs.HaveSeq)

	defer func() {
		rc.shutdown()
		s.mu.Lock()
		delete(s.conns, rc)
		// Membership change: a Commit waiting on this standby must
		// re-evaluate (it may now have nothing to wait for).
		s.wakeLocked()
		s.mu.Unlock()
		s.cfg.Logger.Info("standby disconnected", "shard", s.cfg.Shard, "remote", c.RemoteAddr().String())
	}()

	// Ack reader: the standby's durable high-water marks release
	// Commit waiters.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer rc.shutdown()
		for {
			typ, payload, err := readFrame(br)
			if err != nil {
				return
			}
			if typ != frameAck {
				continue
			}
			var ack ackMsg
			if err := json.Unmarshal(payload, &ack); err != nil {
				return
			}
			s.noteAck(ack.AppliedSeq)
		}
	}()

	// Heartbeat ticker: liveness plus the primary's synced seq, so the
	// standby can report lag without traffic.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		tick := time.NewTicker(s.cfg.Heartbeat)
		defer tick.Stop()
		for {
			select {
			case <-rc.done:
				return
			case <-tick.C:
			}
			hb := heartbeatMsg{SyncedSeq: s.wal.SyncedSeq(), SentUnixNs: time.Now().UnixNano()}
			if rc.send(true, func(bw *bufio.Writer) error { return writeFrame(bw, frameHeartbeat, hb) }) != nil {
				return
			}
		}
	}()

	if err := s.streamRecords(rc, hs.HaveSeq); err != nil && !errors.Is(err, errStreamClosed) {
		s.cfg.Logger.Warn("replication stream ended", "shard", s.cfg.Shard, "err", err)
	}
}

// admit validates a handshake; empty string means accepted.
func (s *Server) admit(hs handshakeMsg) string {
	if hs.Shard != s.cfg.Shard {
		return fmt.Sprintf("shard mismatch: primary serves shard %d, standby asked for %d", s.cfg.Shard, hs.Shard)
	}
	if !s.wal.Meta().Compatible(hs.Meta) {
		return "fabric meta incompatible: standby must be configured with identical fabric parameters"
	}
	// Semi-sync only ships records the primary already persisted, so a
	// standby can never be legitimately ahead of this log. A higher
	// resume point means the standby followed a different history (a
	// previous incarnation of this shard, or a foreign log): streaming
	// from there would splice two histories at a sequence number that
	// only coincidentally matches. Refuse; the operator promotes the
	// standby or wipes its directory, but the logs must not merge.
	if last := s.wal.LastSeq(); hs.HaveSeq > last {
		return fmt.Sprintf("standby log ahead of primary (standby seq %d, primary seq %d): divergent history, refusing to stream", hs.HaveSeq, last)
	}
	return ""
}

func (s *Server) noteAck(seq uint64) {
	s.lastAckNs.Store(time.Now().UnixNano())
	s.mu.Lock()
	if seq > s.maxAcked {
		s.maxAcked = seq
		s.wakeLocked()
	}
	s.mu.Unlock()
}

// streamRecords ships the WAL from after to one standby until the
// stream or the log ends. A standby that is behind is caught up from
// the segment files by a Follower, after a state snapshot when its
// resume point has been compacted away. Once the Follower has
// delivered every published record it hands the stream to the
// group-commit leader (Handoff), which ships each later batch itself
// (rc.ship) before its fsync; this goroutine then only waits. Each
// record frame carries the appender's payload byte for byte; nothing
// here encodes a record.
func (s *Server) streamRecords(rc *repConn, after uint64) error {
	fl := s.wal.Follow(after)
	defer func() { fl.Close() }()
	for {
		select {
		case <-rc.done:
			return errStreamClosed
		default:
		}
		_, payload, err := fl.Next()
		switch {
		case err == nil:
			// Catch-up frames flush when the buffer fills or the
			// stream catches up.
			err = rc.send(false, func(bw *bufio.Writer) error { return writePayload(bw, frameRecord, payload) })
		case errors.Is(err, durable.ErrCaughtUp):
			if err = rc.send(true, nil); err != nil {
				break
			}
			if end, ok := fl.Handoff(rc.ship); ok {
				select {
				case <-rc.done:
					return errStreamClosed
				case <-end:
					return durable.ErrClosed
				}
			}
		case errors.Is(err, durable.ErrCompacted):
			fl.Close()
			snap := s.ctl.SnapshotState()
			s.cfg.Logger.Info("resume point compacted; shipping snapshot",
				"shard", s.cfg.Shard, "after", after, "snapshot_seq", snap.LastSeq)
			err = rc.send(true, func(bw *bufio.Writer) error { return writeFrame(bw, frameSnapshot, snap) })
			after = snap.LastSeq
			fl = s.wal.Follow(after)
		}
		if err != nil {
			return err
		}
	}
}

// dialAndHandshake is the standby-side opener, kept next to the server
// so the two halves of the protocol stay in one file pair.
func dialAndHandshake(addr string, timeout time.Duration, hs handshakeMsg) (net.Conn, *bufio.Reader, *bufio.Writer, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, nil, nil, err
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	br := bufio.NewReaderSize(c, 1<<16)
	bw := bufio.NewWriterSize(c, 1<<16)
	if err := writeFrame(bw, frameHandshake, hs); err != nil {
		c.Close()
		return nil, nil, nil, err
	}
	if err := bw.Flush(); err != nil {
		c.Close()
		return nil, nil, nil, err
	}
	return c, br, bw, nil
}
