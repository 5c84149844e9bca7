package durable

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// corruptError marks a frame-level integrity failure: recovery
// truncates at it, Verify reports it; neither treats it as fatal.
type corruptError struct{ reason string }

func (e *corruptError) Error() string { return e.reason }

// readFrame reads one [len][crc32c][payload] frame. It returns io.EOF
// at a clean end and *corruptError for a torn or bit-flipped frame.
func readFrame(br *bufio.Reader) ([]byte, int64, error) {
	var hdr [frameHeader]byte
	n, err := io.ReadFull(br, hdr[:])
	if err == io.EOF {
		return nil, 0, io.EOF
	}
	if err != nil {
		return nil, 0, &corruptError{fmt.Sprintf("torn frame header (%d of %d bytes)", n, frameHeader)}
	}
	length := binary.LittleEndian.Uint32(hdr[0:4])
	if length > maxRecordBytes {
		return nil, 0, &corruptError{fmt.Sprintf("frame length %d out of range", length)}
	}
	payload := make([]byte, length)
	n, err = io.ReadFull(br, payload)
	if err != nil {
		return nil, 0, &corruptError{fmt.Sprintf("torn frame payload (%d of %d bytes)", n, length)}
	}
	want := binary.LittleEndian.Uint32(hdr[4:8])
	if got := crc32.Checksum(payload, castagnoli); got != want {
		return nil, 0, &corruptError{fmt.Sprintf("crc mismatch (stored %08x, computed %08x)", want, got)}
	}
	return payload, int64(frameHeader) + int64(length), nil
}

// walkInfo is what a full log scan learned.
type walkInfo struct {
	lastSeq uint64
	records int
	// tailIndex/tailEnd locate the end of valid data: segment index in
	// the scanned slice and byte offset of the first byte past the last
	// good frame there.
	tailIndex int
	tailEnd   int64
	truncated *Truncation
	segments  []SegmentReport
}

// walkLog scans segments in order, invoking fn for every CRC-valid
// record. The first integrity failure (bad magic, torn frame, CRC
// mismatch, sequence discontinuity, a log whose first record is not
// the one its segment is named for) stops the scan and is reported as
// a Truncation at its byte offset; later segments are not read. fn may
// be nil. snapSeq is the LastSeq of the snapshot priming this scan:
// a forward sequence jump at a segment boundary is accepted when every
// skipped record is covered by it (recovery rotates to snapSeq+1 after
// cutting a corrupted tail that left the log behind the snapshot).
func walkLog(segs []segmentInfo, snapSeq uint64, fn func(*Record)) (*walkInfo, error) {
	wi := &walkInfo{tailIndex: -1}
	var prevSeq uint64
	for i, si := range segs {
		rep := SegmentReport{Name: si.name, FirstSeq: si.firstSeq}
		f, err := os.Open(si.path)
		if err != nil {
			return nil, fmt.Errorf("durable: open segment %s: %w", si.name, err)
		}
		br := bufio.NewReader(f)
		offset := int64(0)
		corrupt := func(reason string) {
			wi.truncated = &Truncation{Segment: si.name, Offset: offset, Reason: reason}
		}
		magic := make([]byte, len(segmentMagic))
		if n, err := io.ReadFull(br, magic); err != nil {
			corrupt(fmt.Sprintf("torn segment magic (%d of %d bytes)", n, len(segmentMagic)))
		} else if string(magic) != segmentMagic {
			corrupt("bad segment magic")
		} else {
			offset = int64(len(segmentMagic))
			first := true
			for {
				payload, n, err := readFrame(br)
				if err == io.EOF {
					break
				}
				if cerr, ok := err.(*corruptError); ok {
					corrupt(cerr.reason)
					break
				}
				if err != nil {
					f.Close()
					return nil, fmt.Errorf("durable: read segment %s: %w", si.name, err)
				}
				var rec Record
				if derr := json.Unmarshal(payload, &rec); derr != nil {
					corrupt(fmt.Sprintf("undecodable record: %v", derr))
					break
				}
				if prevSeq == 0 {
					// The log's first record. A segment is named for its
					// first record, and Append never writes sequence 0.
					if rec.Seq == 0 || rec.Seq != si.firstSeq {
						corrupt(fmt.Sprintf("log starts at sequence %d in a segment named for %d", rec.Seq, si.firstSeq))
						break
					}
				} else if rec.Seq != prevSeq+1 {
					// Only the first record of a segment named for it may
					// jump forward, and only across a snapshot-covered gap.
					jump := first && rec.Seq == si.firstSeq && rec.Seq > prevSeq && rec.Seq-1 <= snapSeq
					if !jump {
						corrupt(fmt.Sprintf("sequence discontinuity: %d after %d", rec.Seq, prevSeq))
						break
					}
				}
				first = false
				if fn != nil {
					fn(&rec)
				}
				prevSeq = rec.Seq
				wi.lastSeq = rec.Seq
				wi.records++
				rep.Records++
				offset += n
			}
		}
		f.Close()
		wi.tailIndex = i
		wi.tailEnd = offset
		rep.Bytes = offset
		wi.segments = append(wi.segments, rep)
		if wi.truncated != nil {
			break
		}
	}
	return wi, nil
}

// scan is the one read of a data directory: Open, Verify and ReadState
// are each this scan followed by their own use of it. It reports every
// snapshot, primes a State from the newest valid one, walks the log
// once, and folds every non-meta record past that snapshot into the
// state.
type scan struct {
	dir       string
	snapshots []SnapshotReport // newest first
	// snapMeta and snapSeq come from the snapshot that primed state;
	// snapMeta is nil when none did and the log replays from its start.
	snapMeta *Meta
	snapSeq  uint64
	// logMeta is the log's meta record, nil when none was read.
	logMeta *Meta
	state   *State
	// replayed counts the records folded into state past snapSeq.
	replayed int
	segs     []segmentInfo
	log      *walkInfo
}

// scanDir reads dir read-only. fn, when non-nil, sees every valid
// record in sequence order, including the meta record and records the
// priming snapshot already covers.
func scanDir(dir string, fn func(*Record)) (*scan, error) {
	sc := &scan{dir: dir, state: NewState()}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	// The newest CRC-valid snapshot primes the state; a corrupt newest
	// snapshot falls back to the previous generation, then to a full
	// log replay.
	for _, si := range snaps {
		sr := SnapshotReport{Name: si.name, LastSeq: si.lastSeq}
		snap, serr := readSnapshotFile(si.path)
		if serr != nil {
			sr.Error = serr.Error()
		} else {
			sr.Valid = true
			sr.Sessions = len(snap.Sessions)
			if sc.snapMeta == nil {
				m := snap.Meta
				sc.snapMeta = &m
				sc.snapSeq = snap.LastSeq
				sc.state.LoadSnapshot(snap)
			}
		}
		sc.snapshots = append(sc.snapshots, sr)
	}
	if sc.segs, err = listSegments(dir); err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	sc.log, err = walkLog(sc.segs, sc.snapSeq, func(r *Record) {
		switch {
		case r.Op == OpMeta:
			if sc.logMeta == nil {
				sc.logMeta = r.Meta
			}
		case r.Seq > sc.snapSeq:
			sc.state.Apply(r)
			sc.replayed++
		}
		if fn != nil {
			fn(r)
		}
	})
	if err != nil {
		return nil, err
	}
	return sc, nil
}

// lastSeq is where the log stands: its last valid record, or the
// priming snapshot's LastSeq when that is further on.
func (sc *scan) lastSeq() uint64 { return max(sc.log.lastSeq, sc.snapSeq) }

// report is the scan as Verify's integrity summary.
func (sc *scan) report() *VerifyReport {
	return &VerifyReport{
		Dir:       sc.dir,
		Segments:  sc.log.segments,
		Snapshots: sc.snapshots,
		Records:   sc.log.records,
		LastSeq:   sc.lastSeq(),
		Sessions:  len(sc.state.Sessions),
		Sealed:    sc.state.Sealed,
		Truncated: sc.log.truncated,
		Clean:     sc.log.truncated == nil,
	}
}

// Open recovers the data directory and returns the live Plane plus
// what recovery found: it reads the directory with the scan Verify
// reports, then acts on it. meta is the serving configuration's fabric
// identity: a log recorded against different fabric parameters is
// refused (replaying its routes would corrupt link bookkeeping).
//
// A corrupted tail is handled, not fatal: the log is truncated at the
// first bad frame (Recovery.Truncated reports segment, byte offset and
// reason), segments past it are quarantined with a .corrupt suffix,
// and the plane resumes appends at the last durable record — in a
// fresh segment whenever extending the cut tail could be mistaken for
// corruption by a later recovery.
func Open(opts Options, meta Meta) (*Plane, *Recovery, error) {
	start := time.Now()
	opts = opts.withDefaults()
	if opts.Dir == "" {
		return nil, nil, fmt.Errorf("durable: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}

	sc, err := scanDir(opts.Dir, nil)
	if err != nil {
		return nil, nil, err
	}
	// A log recorded for another fabric is refused before any file is
	// touched.
	for _, sr := range sc.snapshots {
		if sr.Valid {
			if !sc.snapMeta.Compatible(meta) {
				return nil, nil, fmt.Errorf("durable: data dir %s was recorded for a different fabric (snapshot %s)", opts.Dir, sr.Name)
			}
			break
		}
		opts.Logger.Warn("snapshot unreadable, falling back",
			slog.String("snapshot", sr.Name), slog.String("error", sr.Error))
	}
	if m := sc.logMeta; m != nil && !m.Compatible(meta) {
		return nil, nil, fmt.Errorf("durable: data dir %s was recorded for a different fabric (params %+v x%d)", opts.Dir, m.Params, m.Replicas)
	}
	rec := &Recovery{Meta: meta, SnapshotSeq: sc.snapSeq}
	segs, wi := sc.segs, sc.log

	// Cut the corrupted tail and quarantine anything after it.
	tailRemoved := false
	if wi.truncated != nil {
		t := wi.truncated
		opts.Logger.Warn("wal corrupted tail truncated",
			slog.String("segment", t.Segment),
			slog.Int64("offset", t.Offset),
			slog.String("reason", t.Reason))
		if t.Offset < int64(len(segmentMagic)) {
			// The cut lands at or inside the segment magic: truncating
			// would leave a headerless husk that the next recovery reads
			// as "bad segment magic" at offset 0 — destroying any record
			// appended after this recovery. Nothing durable remains in
			// the file, so remove it; appends resume in a fresh segment.
			if err := os.Remove(filepath.Join(opts.Dir, t.Segment)); err != nil {
				return nil, nil, fmt.Errorf("durable: remove corrupted segment: %w", err)
			}
			tailRemoved = true
		} else if err := os.Truncate(filepath.Join(opts.Dir, t.Segment), t.Offset); err != nil {
			return nil, nil, fmt.Errorf("durable: truncate corrupted tail: %w", err)
		}
		for i := wi.tailIndex + 1; i < len(segs); i++ {
			q := segs[i].path + ".corrupt"
			opts.Logger.Warn("wal segment quarantined", slog.String("segment", segs[i].name))
			if err := os.Rename(segs[i].path, q); err != nil {
				return nil, nil, fmt.Errorf("durable: quarantine %s: %w", segs[i].name, err)
			}
		}
		rec.Truncated = t
	}

	lastSeq := sc.lastSeq()

	p := &Plane{
		opts:     opts,
		meta:     meta,
		seq:      lastSeq,
		synced:   lastSeq,
		visible:  lastSeq,
		segments: len(segs),
		snapSeq:  rec.SnapshotSeq,
		forming:  new(batchSplit),
		end:      make(chan struct{}),
	}
	p.cond = sync.NewCond(&p.mu)

	// Reopen the scanned tail for appends only when the next record
	// extends it contiguously. After a truncation, or when the snapshot
	// is ahead of the log, appending at lastSeq+1 would put a sequence
	// gap *inside* the segment — which the next recovery's discontinuity
	// check would cut at, destroying records acked after this recovery.
	// Those cases rotate to a fresh segment at lastSeq+1 instead;
	// walkLog accepts that jump at a segment boundary when the gap is
	// snapshot-covered. A tail holding no records gets its first one
	// here, so it too is reused only when named for it.
	reuseTail := wi.tailIndex >= 0 && !tailRemoved
	emptyTail := wi.tailEnd == int64(len(segmentMagic))
	if reuseTail && (wi.truncated != nil || rec.SnapshotSeq > wi.lastSeq || emptyTail) {
		// Still reusable if the tail holds no records and is already
		// named for the next sequence — it is exactly the fresh segment
		// rotation would create (and creating one would collide).
		reuseTail = emptyTail && segs[wi.tailIndex].firstSeq == lastSeq+1
		if !reuseTail && emptyTail {
			// Named for another sequence, it must not take the next
			// record; it holds none, so removing it loses nothing.
			if err := os.Remove(segs[wi.tailIndex].path); err != nil {
				return nil, nil, fmt.Errorf("durable: remove empty tail segment: %w", err)
			}
			tailRemoved = true
		}
	}
	if reuseTail {
		tail := segs[wi.tailIndex]
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: reopen tail segment: %w", err)
		}
		p.f = f
		p.w = bufio.NewWriter(f)
		p.size = wi.tailEnd
		p.segments = wi.tailIndex + 1
	} else {
		f, err := createSegment(opts.Dir, lastSeq+1)
		if err != nil {
			return nil, nil, fmt.Errorf("durable: %w", err)
		}
		syncDir(opts.Dir)
		p.f = f
		p.w = bufio.NewWriter(f)
		p.size = int64(len(segmentMagic))
		p.segments = wi.tailIndex + 2
		if tailRemoved {
			p.segments--
		}
	}
	p.sealed = sc.state.Sealed

	if wi.records == 0 && rec.SnapshotSeq == 0 {
		m := meta
		if _, err := p.Append(&Record{Op: OpMeta, Meta: &m}); err != nil {
			p.Close()
			return nil, nil, err
		}
	}

	rec.Sessions = sc.state.SessionList()
	rec.Failed = sc.state.FailedList()
	rec.NextSession = sc.state.NextSession
	rec.LastSeq = lastSeq
	rec.Records = sc.replayed
	rec.Sealed = sc.state.Sealed
	rec.Elapsed = time.Since(start)
	return p, rec, nil
}

// SegmentReport is one segment's verification summary.
type SegmentReport struct {
	Name     string `json:"name"`
	FirstSeq uint64 `json:"first_seq"`
	Records  int    `json:"records"`
	Bytes    int64  `json:"bytes"`
}

// SnapshotReport is one snapshot's verification summary.
type SnapshotReport struct {
	Name     string `json:"name"`
	LastSeq  uint64 `json:"last_seq"`
	Sessions int    `json:"sessions,omitempty"`
	Valid    bool   `json:"valid"`
	Error    string `json:"error,omitempty"`
}

// VerifyReport is the read-only integrity summary of a data directory.
type VerifyReport struct {
	Dir       string           `json:"dir"`
	Segments  []SegmentReport  `json:"segments"`
	Snapshots []SnapshotReport `json:"snapshots,omitempty"`
	Records   int              `json:"records"`
	LastSeq   uint64           `json:"last_seq"`
	Sessions  int              `json:"sessions"`
	Sealed    bool             `json:"sealed"`
	// Truncated reports the first bad frame — the same segment and
	// byte offset recovery would truncate at. Nil for a clean log.
	Truncated *Truncation `json:"truncated,omitempty"`
	Clean     bool        `json:"clean"`
}

// Verify scans a data directory read-only and reports its integrity.
// The reported truncation offset, if any, is byte-identical to where
// Open would cut the log.
func Verify(dir string) (*VerifyReport, error) {
	sc, err := scanDir(dir, nil)
	if err != nil {
		return nil, err
	}
	return sc.report(), nil
}

// ReadState is Open's scan without Open's writes, for offline tooling:
// the directory's materialized state, the fabric identity it records
// (the priming snapshot's meta, else the log's meta record; nil when it
// holds neither), and the same report Verify gives. fn, when non-nil,
// sees every valid record in sequence order.
func ReadState(dir string, fn func(*Record)) (*State, *Meta, *VerifyReport, error) {
	sc, err := scanDir(dir, fn)
	if err != nil {
		return nil, nil, nil, err
	}
	meta := sc.snapMeta
	if meta == nil {
		meta = sc.logMeta
	}
	return sc.state, meta, sc.report(), nil
}
