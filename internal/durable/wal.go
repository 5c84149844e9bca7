package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	segmentMagic  = "WDMWAL1\n"
	snapshotMagic = "WDMSNP1\n"
	frameHeader   = 8 // 4-byte LE payload length + 4-byte LE CRC32C
	// maxRecordBytes bounds a single frame; anything larger in a length
	// header is treated as corruption, not an allocation request.
	maxRecordBytes = 1 << 24

	defaultSegmentBytes = 16 << 20
)

// castagnoli is the CRC32C table (iSCSI polynomial), the same check
// used by leveldb/rocksdb log formats.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrClosed is returned by Enqueue and Append after Close or Seal.
	ErrClosed = errors.New("durable: log closed")
	// ErrCrashed is returned once Crash has simulated a hard stop.
	ErrCrashed = errors.New("durable: log crashed (fault injection)")
)

// Options configures a Plane.
type Options struct {
	// Dir is the data directory (created if absent).
	Dir string
	// SegmentBytes rotates the log when the active segment exceeds this
	// size (default 16 MiB).
	SegmentBytes int64
	// OnFsync, if set, observes every fsync duration (metrics hook).
	OnFsync func(time.Duration)
	// Committer, if set, extends the durability barrier: the batch
	// leader calls Committer(upTo) after the batch fsync covering
	// sequence upTo succeeds and before any append in the batch is
	// acknowledged. A replication layer uses it to wait for a standby's
	// ack, so "Append returned" implies "durable on the standby too".
	// Called without the Plane lock held; it must not append to the same
	// Plane and it must return (use its own timeout to degrade).
	Committer func(upTo uint64)
	Logger    *slog.Logger
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = defaultSegmentBytes
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	return o
}

// Stats is a point-in-time view of the log for gauges and dashboards.
type Stats struct {
	Appends       uint64 `json:"appends"`
	Syncs         uint64 `json:"syncs"`
	LastSeq       uint64 `json:"last_seq"`
	SyncedSeq     uint64 `json:"synced_seq"`
	UnsyncedBytes int64  `json:"unsynced_bytes"`
	AppendedBytes int64  `json:"appended_bytes"`
	Segments      int    `json:"segments"`
	SegmentSize   int64  `json:"segment_size"`
	// LastSnapshotUnixNs is 0 until the first snapshot is written or
	// loaded.
	LastSnapshotUnixNs int64  `json:"last_snapshot_unix_ns"`
	LastSnapshotSeq    uint64 `json:"last_snapshot_seq"`
	Sealed             bool   `json:"sealed"`
}

// Plane is the open write-ahead log. Appends are safe for concurrent
// use; a successful Append means the record's frame was fsynced.
type Plane struct {
	opts Options
	meta Meta

	mu   sync.Mutex
	cond *sync.Cond
	f    *os.File
	w    *bufio.Writer
	size int64 // bytes in the active segment, including buffered

	seq     uint64 // last assigned sequence number
	synced  uint64 // last sequence covered by a completed fsync
	visible uint64 // last sequence published: flushed to the segment file, readable by a Follower
	// batch holds the frame payloads of the records appended since the
	// last publish (sequences visible+1 on), as their appenders encoded
	// them: the leader that publishes them ships them to the caught-up
	// streams from memory. spare is the previous shipped batch's slice,
	// kept for reuse.
	batch, spare [][]byte
	// shippers are the caught-up replication streams (Follower.Handoff)
	// each publish ships its batch to.
	shippers []*shipper
	// end is closed once the log publishes nothing more: after Close's
	// final batch, at Crash, or when the log fails.
	end chan struct{}
	// forming is the split of the batch now buffering: an appender
	// takes it with its frame, and the leader that flushes the frame
	// fills it in before releasing the batch, so every appender reads
	// its own batch's split however many batches complete meanwhile.
	forming  *batchSplit
	appended int64 // cumulative framed bytes handed to the log
	flushed  int64 // cumulative framed bytes covered by fsync
	appends  uint64
	syncs    uint64
	segments int
	syncing  bool // a batch leader's fsync is in flight outside the lock
	closed   bool
	sealed   bool
	err      error // sticky: first write/fsync failure poisons the log
	snapSeq  uint64
	snapUnix int64
	// holdFlush, when set, runs once with the lock dropped before the
	// next batch leader flushes. Tests use it to crash while a frame is
	// buffered but not yet written.
	holdFlush func()
}

// shipper is one caught-up replication stream: ship writes a published
// batch to it (Follower.Handoff).
type shipper struct {
	ship func(batch [][]byte) error
}

// batchSplit is one group commit's phase split: its fsync duration and
// its Committer barrier's (replication ack), shared by every append the
// batch covers.
type batchSplit struct{ fsyncD, commitD time.Duration }

// Meta returns the fabric identity the log was opened with.
func (p *Plane) Meta() Meta { return p.meta }

// Dir returns the data directory.
func (p *Plane) Dir() string { return p.opts.Dir }

// Stats returns a consistent snapshot of log counters.
func (p *Plane) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return Stats{
		Appends:            p.appends,
		Syncs:              p.syncs,
		LastSeq:            p.seq,
		SyncedSeq:          p.synced,
		UnsyncedBytes:      p.appended - p.flushed,
		AppendedBytes:      p.appended,
		Segments:           p.segments,
		SegmentSize:        p.size,
		LastSnapshotUnixNs: p.snapUnix,
		LastSnapshotSeq:    p.snapSeq,
		Sealed:             p.sealed,
	}
}

// SyncedSeq returns the durable high-water mark: every record with
// Seq <= SyncedSeq has been fsynced.
func (p *Plane) SyncedSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.synced
}

// LastSeq returns the last assigned sequence number (appended, not
// necessarily flushed or fsynced yet).
func (p *Plane) LastSeq() uint64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.seq
}

// Err returns the sticky log error, if any.
func (p *Plane) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Append assigns the record the next sequence number, frames it into
// the active segment, and blocks until the group-commit fsync covering
// it completes: Enqueue, then Wait. The assigned sequence is returned;
// on error the record must be treated as not persisted (though it may
// still surface after a crash — the usual ambiguous-write caveat).
func (p *Plane) Append(rec *Record) (uint64, error) {
	t, err := p.Enqueue(rec)
	if err != nil {
		return 0, err
	}
	_, _, err = p.Wait(t)
	return t.Seq, err
}

// Ticket is an enqueued record's claim on the group commit that will
// make it durable: its sequence number and the batch it rides.
type Ticket struct {
	Seq   uint64
	split *batchSplit
}

// Enqueue assigns the record the next sequence number and frames it
// into the active segment's buffer without waiting for an fsync, so the
// order of Enqueue calls is the log order: a caller that enqueues under
// its own lock journals its mutations in that lock's order. On error
// nothing was framed. Pass the ticket to Wait.
func (p *Plane) Enqueue(rec *Record) (Ticket, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return Ticket{}, p.err
	}
	if p.closed {
		return Ticket{}, ErrClosed
	}
	p.seq++
	rec.Seq = p.seq
	payload, err := json.Marshal(rec)
	if err != nil {
		p.seq--
		return Ticket{}, fmt.Errorf("durable: encode record: %w", err)
	}
	if len(payload) > maxRecordBytes {
		p.seq--
		return Ticket{}, fmt.Errorf("durable: record of %d bytes exceeds frame limit", len(payload))
	}
	if err := writeFrame(p.w, payload); err != nil {
		p.failLocked(fmt.Errorf("durable: append: %w", err))
		return Ticket{}, p.err
	}
	p.batch = append(p.batch, payload)
	n := int64(frameHeader + len(payload))
	p.size += n
	p.appended += n
	p.appends++
	p.sealed = rec.Op == OpSeal
	return Ticket{Seq: p.seq, split: p.forming}, nil
}

// Wait blocks until the group commit covering an enqueued record
// completes — its fsync and the Committer barrier — leading that group
// commit itself when no fsync is in flight. It returns the batch's
// phase split: fsyncD is the fsync duration and commitD the Committer
// barrier's (replication ack), both 0 when the batch had none or
// Close's final fsync covered the record. The split is per batch, not
// per record: every ticket one group commit covers reports the same
// pair.
func (p *Plane) Wait(t Ticket) (fsyncD, commitD time.Duration, err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waitSyncedLocked(t.Seq)
	return t.split.fsyncD, t.split.commitD, p.err
}

// AppendReplica frames a record that already carries a sequence number
// — a primary's, shipped over a replication stream — into the log.
// payload is the record's frame payload exactly as the primary's
// appender encoded it, as a replication stream delivers it, and it is
// framed as is, so the replica's log holds the primary's bytes; rec is that
// payload decoded, which supplies the sequence and op. The record must
// extend the log contiguously (rec.Seq == LastSeq()+1); a gap or
// replay is a protocol error, not a write. Unlike Append it does not
// block on the group-commit fsync: a standby acknowledges whole batches
// with an explicit Sync before replying, so per-record waits would only
// serialize the stream.
func (p *Plane) AppendReplica(rec *Record, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.err != nil {
		return p.err
	}
	if p.closed {
		return ErrClosed
	}
	if rec.Seq != p.seq+1 {
		return fmt.Errorf("durable: replica append seq %d does not extend last seq %d", rec.Seq, p.seq)
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("durable: record of %d bytes exceeds frame limit", len(payload))
	}
	if werr := writeFrame(p.w, payload); werr != nil {
		p.failLocked(fmt.Errorf("durable: replica append: %w", werr))
		return p.err
	}
	p.batch = append(p.batch, payload)
	p.seq = rec.Seq
	n := int64(frameHeader + len(payload))
	p.size += n
	p.appended += n
	p.appends++
	p.sealed = rec.Op == OpSeal
	// Not durable yet: the caller's next Sync leads the group commit
	// that covers this record and every one appended before it.
	return nil
}

// failLocked records the first error, releases every waiter and ends
// the caught-up streams; the log is poisoned from here on (the caller
// decides whether to keep serving without durability).
func (p *Plane) failLocked(err error) {
	if p.err == nil {
		p.err = err
		p.opts.Logger.Warn("wal failed", slog.String("error", err.Error()))
	}
	p.endLocked()
	p.cond.Broadcast()
}

// endLocked closes end, once: the log publishes nothing more.
func (p *Plane) endLocked() {
	if !p.endedLocked() {
		close(p.end)
	}
}

func (p *Plane) endedLocked() bool {
	select {
	case <-p.end:
		return true
	default:
		return false
	}
}

// publishLocked publishes every record up to target, which the caller
// has just flushed to the segment file: a Follower may read it from
// there on. It returns the batch, those records' payloads, and the
// streams that were caught up before it, for the caller to ship once it
// has dropped the lock (nil when there is nothing to ship).
func (p *Plane) publishLocked(target uint64) ([][]byte, []*shipper) {
	p.visible = target
	batch := p.batch
	if len(p.shippers) == 0 || len(batch) == 0 {
		clear(batch)
		p.batch = batch[:0]
		return nil, nil
	}
	p.batch, p.spare = p.spare[:0], nil
	return batch, p.shippers
}

// shipBatch writes a published batch to each caught-up stream and
// returns the ones that failed. Called with the lock dropped, by the
// one caller between publishLocked and shippedLocked.
func shipBatch(batch [][]byte, to []*shipper) (failed []*shipper) {
	for _, sh := range to {
		if sh.ship(batch) != nil {
			failed = append(failed, sh)
		}
	}
	return failed
}

// shippedLocked takes a shipped batch's slice back for reuse and
// detaches the streams that failed to take it.
func (p *Plane) shippedLocked(batch [][]byte, failed []*shipper) {
	if batch != nil {
		clear(batch)
		p.spare = batch[:0]
	}
	if len(failed) > 0 {
		p.shippers = slices.DeleteFunc(p.shippers, func(sh *shipper) bool { return slices.Contains(failed, sh) })
	}
}

// waitSyncedLocked returns once a group commit has made every record
// up to seq durable, or the log has failed. A waiter that finds no
// fsync in flight leads the next batch itself; the others wait for it,
// and appends that arrive meanwhile form the batch after. Once the log
// is closed nobody leads: Close's final fsync covers every waiter.
func (p *Plane) waitSyncedLocked(seq uint64) {
	for p.synced < seq && p.err == nil {
		if p.syncing || p.closed {
			p.cond.Wait()
			continue
		}
		p.commitBatchLocked()
	}
}

// commitBatchLocked runs one group commit as its leader: it flushes the
// buffer, publishes the batch, rotates the segment if due, and with the
// lock dropped ships the batch to the caught-up streams and runs one
// fsync for all of it, so appends arriving meanwhile buffer into the
// next batch while this one hits the disk. Called and returns with p.mu
// held.
func (p *Plane) commitBatchLocked() {
	if hold := p.holdFlush; hold != nil {
		p.holdFlush = nil
		p.mu.Unlock()
		hold()
		p.mu.Lock()
		if p.closed || p.err != nil {
			return
		}
	}
	if err := p.w.Flush(); err != nil {
		p.failLocked(fmt.Errorf("durable: flush: %w", err))
		return
	}
	target := p.seq
	batchBytes := p.appended
	split := p.forming
	p.forming = new(batchSplit)
	// The whole batch is in the segment file now (though not yet
	// fsynced): publish it. Rotation below cannot strand a follower —
	// every frame <= target landed before the new segment file exists.
	batch, to := p.publishLocked(target)
	syncF := p.f
	var oldF *os.File
	if p.size >= p.opts.SegmentBytes {
		if err := p.rotateLocked(target + 1); err != nil {
			p.failLocked(err)
			return
		}
		oldF = syncF
	}
	p.syncing = true
	p.mu.Unlock()
	// Ship before the fsync: the standby's append and fsync then overlap
	// the primary's. Leaders do not overlap (syncing), so batches reach
	// every stream in sequence order.
	failed := shipBatch(batch, to)
	start := time.Now()
	serr := syncF.Sync()
	d := time.Since(start)
	if oldF != nil {
		oldF.Close()
		syncDir(p.opts.Dir)
	}
	if p.opts.OnFsync != nil && serr == nil {
		p.opts.OnFsync(d)
	}
	// Extend the durability barrier (replication ack) before any
	// appender in the batch is released: a record acknowledged to a
	// client is then durable on the standby as well.
	var commitD time.Duration
	if serr == nil && p.opts.Committer != nil {
		cstart := time.Now()
		p.opts.Committer(target)
		commitD = time.Since(cstart)
	}
	p.mu.Lock()
	p.syncing = false
	p.shippedLocked(batch, failed)
	if serr != nil {
		p.failLocked(fmt.Errorf("durable: fsync: %w", serr))
		return
	}
	p.syncs++
	p.synced = target
	p.flushed = batchBytes
	split.fsyncD, split.commitD = d, commitD
	p.cond.Broadcast()
}

// rotateLocked switches the active segment. The outgoing file has been
// flushed; frames appended while its final fsync is in flight buffer
// into the new segment.
func (p *Plane) rotateLocked(firstSeq uint64) error {
	f, err := createSegment(p.opts.Dir, firstSeq)
	if err != nil {
		return fmt.Errorf("durable: rotate: %w", err)
	}
	p.f = f
	p.w = bufio.NewWriter(f)
	p.size = int64(len(segmentMagic))
	p.segments++
	return nil
}

// Sync makes everything appended so far durable, leading a group
// commit when no fsync is in flight. A replication standby calls it
// once per delivered batch of AppendReplica records.
func (p *Plane) Sync() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.waitSyncedLocked(p.seq)
	return p.err
}

// Seal appends a clean-shutdown marker, waits for it to be durable,
// and closes the log. A sealed log recovers to an explicit
// "clean drain" state.
func (p *Plane) Seal() error {
	if _, err := p.Append(&Record{Op: OpSeal}); err != nil {
		p.Close()
		return err
	}
	return p.Close()
}

// Close flushes, fsyncs, and closes the log. Blocked appenders are
// released (their records are made durable by the final fsync). A
// batch leader in flight is waited out first, so the final batch ships
// to the caught-up streams after the leader's.
func (p *Plane) Close() error {
	p.mu.Lock()
	if p.closed {
		err := p.err
		p.mu.Unlock()
		if err != nil && !errors.Is(err, ErrCrashed) {
			return err
		}
		return nil
	}
	p.closed = true
	for p.syncing {
		p.cond.Wait()
	}
	if p.err == nil {
		if err := p.w.Flush(); err != nil {
			p.failLocked(fmt.Errorf("durable: close flush: %w", err))
		} else {
			target := p.seq
			batch, to := p.publishLocked(target)
			p.mu.Unlock()
			failed := shipBatch(batch, to)
			serr := p.f.Sync()
			if serr == nil && p.opts.Committer != nil {
				// Let the standby ack the final records before the
				// appenders they cover are released.
				p.opts.Committer(target)
			}
			p.mu.Lock()
			p.shippedLocked(batch, failed)
			if serr != nil {
				p.failLocked(fmt.Errorf("durable: close fsync: %w", serr))
			} else {
				p.synced = target
				p.flushed = p.appended
			}
		}
	}
	err := p.err
	p.f.Close()
	p.endLocked()
	p.cond.Broadcast()
	p.mu.Unlock()
	return err
}

// Crash simulates a hard stop (kill -9) for fault injection and tests:
// the user-space buffer is dropped without flushing and the file is
// closed, so frames not yet covered by a group-commit fsync are lost —
// exactly the records whose Append had not yet acknowledged. Acked
// records survive by definition.
func (p *Plane) Crash() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.cond.Broadcast()
	for p.syncing {
		p.cond.Wait()
	}
	// Drop the buffered frames on the floor: Reset points the writer at
	// a discard so nothing buffered reaches the file descriptor.
	p.w.Reset(discardWriter{})
	p.f.Close()
	p.failLocked(ErrCrashed)
	p.mu.Unlock()
}

type discardWriter struct{}

func (discardWriter) Write(b []byte) (int, error) { return len(b), nil }

// writeFrame emits [len][crc32c][payload].
func writeFrame(w *bufio.Writer, payload []byte) error {
	var hdr [frameHeader]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, castagnoli))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func segmentName(firstSeq uint64) string {
	return fmt.Sprintf("wal-%016x.log", firstSeq)
}

func snapshotName(lastSeq uint64) string {
	return fmt.Sprintf("snap-%016x.snap", lastSeq)
}

func createSegment(dir string, firstSeq uint64) (*os.File, error) {
	path := filepath.Join(dir, segmentName(firstSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write([]byte(segmentMagic)); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// syncDir fsyncs a directory so renames and creates within it are
// durable. Best-effort: some filesystems refuse directory fsync.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// segmentInfo identifies one on-disk log segment.
type segmentInfo struct {
	name     string
	path     string
	firstSeq uint64
}

type snapshotInfo struct {
	name    string
	path    string
	lastSeq uint64
}

// listSegments returns the data directory's segments ordered by first
// sequence number. Files with unparseable names are ignored.
func listSegments(dir string) ([]segmentInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log"), 16, 64)
		if err != nil {
			continue
		}
		segs = append(segs, segmentInfo{name: name, path: filepath.Join(dir, name), firstSeq: seq})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// listSnapshots returns snapshots ordered newest first.
func listSnapshots(dir string) ([]snapshotInfo, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var snaps []snapshotInfo
	for _, e := range ents {
		name := e.Name()
		if !strings.HasPrefix(name, "snap-") || !strings.HasSuffix(name, ".snap") {
			continue
		}
		seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "snap-"), ".snap"), 16, 64)
		if err != nil {
			continue
		}
		snaps = append(snaps, snapshotInfo{name: name, path: filepath.Join(dir, name), lastSeq: seq})
	}
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].lastSeq > snaps[j].lastSeq })
	return snaps, nil
}
