// Package cluster is the horizontal layer over switchd: each shard is
// one primary controller whose write-ahead log is streamed, record by
// record, to a standby that appends it to a log of its own. Because
// every acknowledged mutation is a WAL record and a record set that
// coexisted in a fabric reinstalls without blocking by construction,
// "replicate the switch" reduces to "ship the log": the standby holds a
// byte-equivalent log at all times, and promotion — on heartbeat loss
// or an explicit admin request — is a local recovery from that log
// through the same multistage.Reinstall path a restarted primary uses,
// not a state transfer.
//
// Who ships a record, and when: a standby that is behind — joining,
// resuming after a dropped connection, or bootstrapped from a snapshot
// — is caught up by a per-standby goroutine that reads the segment
// files (durable.Follower). Once it has sent every published record it
// hands the stream to the primary's group commit, and from then on the
// batch leader that flushed a batch writes it to every caught-up
// standby's socket itself, before its own fsync, so the two fsyncs
// overlap. Every write to a standby carries a deadline, so a standby
// that stops reading is dropped rather than stalling the leader; it
// reconnects and catches up from the segments.
//
// Replication is semi-synchronous: the primary's group commit calls
// into Server.Commit (durable.Options.Committer) after each batch
// fsync, which waits — bounded by a timeout — for the standby to both
// append and fsync the batch before any client in the batch is
// acknowledged. Neither end waits on a timer. The primary's batch is
// whatever arrived during the previous fsync, and the standby applies
// every record frame its stream has already delivered, then fsyncs and
// acks them once. A healthy pair therefore loses zero acknowledged
// sessions on primary death; a dead or lagging standby degrades the
// pair to asynchronous shipping (counted, surfaced in /v1/health)
// rather than stalling the serving path forever.
package cluster

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/durable"
)

// Wire protocol: after the standby's handshake, both directions carry
// [1-byte type][4-byte LE length][JSON payload] frames over one TCP
// connection. A record frame's payload is the WAL record payload
// verbatim — the JSON the primary's appender wrote to its own log — so
// the standby frames into its log the bytes the primary wrote. The
// length prefix keeps framing independent of the payload, so a torn
// frame is detected by a short read, never by a parse error.
const (
	frameHandshake byte = 1 // standby -> primary: who I am, where I am
	frameSnapshot  byte = 2 // primary -> standby: bootstrap state (resume point pruned)
	frameRecord    byte = 3 // primary -> standby: one WAL record
	frameHeartbeat byte = 4 // primary -> standby: liveness + primary's synced seq
	frameAck       byte = 5 // standby -> primary: durable-applied high-water mark
	frameReject    byte = 6 // primary -> standby: fatal protocol error, then close
)

// maxFrameBytes bounds one wire frame; mirrors the WAL's frame limit
// (a snapshot frame can be large, a record frame cannot).
const maxFrameBytes = 1 << 28

// handshakeMsg opens the stream: the standby names its shard, proves
// fabric identity (meta must be Compatible), and asks to resume after
// the newest sequence it holds durably.
type handshakeMsg struct {
	Shard   int          `json:"shard"`
	HaveSeq uint64       `json:"have_seq"`
	Meta    durable.Meta `json:"meta"`
}

// heartbeatMsg rides the replication stream (no separate port): sent
// every Heartbeat interval even when no records flow, so the standby's
// failover timer measures primary liveness, not traffic.
type heartbeatMsg struct {
	SyncedSeq  uint64 `json:"synced_seq"`
	SentUnixNs int64  `json:"sent_unix_ns"`
}

// ackMsg reports the standby's durable progress: every record with
// Seq <= AppliedSeq is appended to the standby's log and fsynced.
type ackMsg struct {
	AppliedSeq uint64 `json:"applied_seq"`
}

// rejectMsg explains a fatal stream rejection (wrong shard, fabric
// mismatch) before the primary closes the connection.
type rejectMsg struct {
	Reason string `json:"reason"`
}

// writeFrame encodes v as JSON and emits it as one frame. The caller
// owns flushing.
func writeFrame(w *bufio.Writer, typ byte, v any) error {
	payload, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("cluster: encode frame %d: %w", typ, err)
	}
	return writePayload(w, typ, payload)
}

// writePayload emits one frame around an already-encoded payload. The
// caller owns flushing.
func writePayload(w *bufio.Writer, typ byte, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("cluster: frame of %d bytes exceeds limit", len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one frame. io.EOF means the peer closed cleanly
// between frames; a short read mid-frame surfaces as
// io.ErrUnexpectedEOF (the on-the-wire torn-frame case — the receiver
// reconnects and resumes from its durable high-water mark).
func readFrame(r *bufio.Reader) (byte, []byte, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF
		}
		return 0, nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(hdr[1:5])
	if n > maxFrameBytes {
		return 0, nil, fmt.Errorf("cluster: frame length %d exceeds limit", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, io.ErrUnexpectedEOF
	}
	return hdr[0], payload, nil
}

// recordBuffered reports whether r already holds one whole record
// frame, so reading it cannot block. The standby batches on it: every
// record the stream has delivered shares one fsync and one ack.
func recordBuffered(r *bufio.Reader) bool {
	if r.Buffered() < 5 {
		return false
	}
	hdr, err := r.Peek(5)
	if err != nil || hdr[0] != frameRecord {
		return false
	}
	return uint64(r.Buffered()) >= 5+uint64(binary.LittleEndian.Uint32(hdr[1:5]))
}
