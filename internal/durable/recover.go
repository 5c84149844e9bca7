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

func readFull(r *bufio.Reader, buf []byte) (int, error) {
	return io.ReadFull(r, buf)
}

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
	sealed  bool
	// tailIndex/tailEnd locate the end of valid data: segment index in
	// the scanned slice and byte offset of the first byte past the last
	// good frame there.
	tailIndex int
	tailEnd   int64
	truncated *Truncation
	// perSegment mirrors records per segment for reporting.
	perSegment []segmentReportInternal
}

type segmentReportInternal struct {
	info    segmentInfo
	records int
	bytes   int64
}

// walkLog scans segments in order, invoking fn for every CRC-valid
// record. The first integrity failure (bad magic, torn frame, CRC
// mismatch, sequence discontinuity) stops the scan and is reported as
// a Truncation at its byte offset; later segments are not read. fn may
// be nil. snapSeq is the LastSeq of the snapshot priming this scan:
// a forward sequence jump at a segment boundary is accepted when every
// skipped record is covered by it (recovery rotates to snapSeq+1 after
// cutting a corrupted tail that left the log behind the snapshot).
func walkLog(segs []segmentInfo, snapSeq uint64, fn func(*Record) error) (*walkInfo, error) {
	wi := &walkInfo{tailIndex: -1}
	var prevSeq uint64
	for i, si := range segs {
		rep := segmentReportInternal{info: si}
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
				if prevSeq != 0 && rec.Seq != prevSeq+1 {
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
					if ferr := fn(&rec); ferr != nil {
						f.Close()
						return nil, ferr
					}
				}
				prevSeq = rec.Seq
				wi.lastSeq = rec.Seq
				wi.records++
				rep.records++
				wi.sealed = rec.Op == OpSeal
				offset += n
				rep.bytes = offset
			}
		}
		f.Close()
		wi.tailIndex = i
		wi.tailEnd = offset
		if rep.bytes == 0 {
			rep.bytes = offset
		}
		wi.perSegment = append(wi.perSegment, rep)
		if wi.truncated != nil {
			break
		}
	}
	return wi, nil
}

// Open recovers the data directory and returns the live Plane plus
// what recovery found. meta is the serving configuration's fabric
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

	state := NewState()
	rec := &Recovery{Meta: meta}

	// Newest CRC-valid snapshot primes the state; a corrupt newest
	// snapshot falls back to the previous generation, then to a full
	// log replay.
	snaps, err := listSnapshots(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	for _, si := range snaps {
		snap, serr := readSnapshotFile(si.path)
		if serr != nil {
			opts.Logger.Warn("snapshot unreadable, falling back",
				slog.String("snapshot", si.name), slog.String("error", serr.Error()))
			continue
		}
		if !snap.Meta.Compatible(meta) {
			return nil, nil, fmt.Errorf("durable: data dir %s was recorded for a different fabric (snapshot %s)", opts.Dir, si.name)
		}
		state.LoadSnapshot(snap)
		rec.SnapshotSeq = snap.LastSeq
		break
	}

	segs, err := listSegments(opts.Dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: %w", err)
	}
	replayed := 0
	wi, err := walkLog(segs, rec.SnapshotSeq, func(r *Record) error {
		if r.Op == OpMeta {
			if r.Meta != nil && !r.Meta.Compatible(meta) {
				return fmt.Errorf("durable: data dir %s was recorded for a different fabric (params %+v x%d)", opts.Dir, r.Meta.Params, r.Meta.Replicas)
			}
			return nil
		}
		if r.Seq <= rec.SnapshotSeq {
			return nil
		}
		state.Apply(r)
		replayed++
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

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

	lastSeq := wi.lastSeq
	if rec.SnapshotSeq > lastSeq {
		lastSeq = rec.SnapshotSeq
	}

	p := &Plane{
		opts:     opts,
		meta:     meta,
		seq:      lastSeq,
		synced:   lastSeq,
		visible:  lastSeq,
		segments: len(segs),
		snapSeq:  rec.SnapshotSeq,
		forming:  new(batchSplit),
	}
	p.cond = sync.NewCond(&p.mu)

	// Reopen the scanned tail for appends only when the next record
	// extends it contiguously. After a truncation, or when the snapshot
	// is ahead of the log, appending at lastSeq+1 would put a sequence
	// gap *inside* the segment — which the next recovery's discontinuity
	// check would cut at, destroying records acked after this recovery.
	// Those cases rotate to a fresh segment at lastSeq+1 instead;
	// walkLog accepts that jump at a segment boundary when the gap is
	// snapshot-covered.
	reuseTail := wi.tailIndex >= 0 && !tailRemoved
	if reuseTail && (wi.truncated != nil || rec.SnapshotSeq > wi.lastSeq) {
		// Still reusable if the tail holds no records and is already
		// named for the next sequence — it is exactly the fresh segment
		// rotation would create (and creating one would collide).
		reuseTail = wi.tailEnd == int64(len(segmentMagic)) && segs[wi.tailIndex].firstSeq == lastSeq+1
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
	p.sealed = state.Sealed

	if wi.records == 0 && rec.SnapshotSeq == 0 {
		m := meta
		if _, err := p.Append(&Record{Op: OpMeta, Meta: &m}); err != nil {
			p.Close()
			return nil, nil, err
		}
	}

	rec.Sessions = state.SessionList()
	rec.Failed = state.FailedList()
	rec.NextSession = state.NextSession
	rec.LastSeq = lastSeq
	rec.Records = replayed
	rec.Sealed = state.Sealed
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
	rep := &VerifyReport{Dir: dir}
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var snapSeq uint64
	havePrimed := false
	state := NewState()
	for _, si := range snaps {
		sr := SnapshotReport{Name: si.name, LastSeq: si.lastSeq}
		snap, serr := readSnapshotFile(si.path)
		if serr != nil {
			sr.Error = serr.Error()
		} else {
			sr.Valid = true
			sr.Sessions = len(snap.Sessions)
			if !havePrimed {
				state.LoadSnapshot(snap)
				snapSeq = snap.LastSeq
				havePrimed = true
			}
		}
		rep.Snapshots = append(rep.Snapshots, sr)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	wi, err := walkLog(segs, snapSeq, func(r *Record) error {
		if r.Op != OpMeta && r.Seq > snapSeq {
			state.Apply(r)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, sr := range wi.perSegment {
		rep.Segments = append(rep.Segments, SegmentReport{
			Name:     sr.info.name,
			FirstSeq: sr.info.firstSeq,
			Records:  sr.records,
			Bytes:    sr.bytes,
		})
	}
	rep.Records = wi.records
	rep.LastSeq = wi.lastSeq
	if snapSeq > rep.LastSeq {
		rep.LastSeq = snapSeq
	}
	rep.Sessions = len(state.Sessions)
	rep.Sealed = state.Sealed
	rep.Truncated = wi.truncated
	rep.Clean = wi.truncated == nil
	return rep, nil
}

// ReadState replays a data directory read-only into its materialized
// state, returning the log's recorded Meta when one is present (from
// the newest valid snapshot or the meta record). Offline tooling uses
// this; the serving path uses Open.
func ReadState(dir string) (*State, *Meta, *VerifyReport, error) {
	rep := &VerifyReport{Dir: dir}
	var meta *Meta
	state := NewState()
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: %w", err)
	}
	var snapSeq uint64
	for _, si := range snaps {
		snap, serr := readSnapshotFile(si.path)
		if serr != nil {
			continue
		}
		m := snap.Meta
		meta = &m
		state.LoadSnapshot(snap)
		snapSeq = snap.LastSeq
		break
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("durable: %w", err)
	}
	wi, err := walkLog(segs, snapSeq, func(r *Record) error {
		if r.Op == OpMeta {
			if meta == nil && r.Meta != nil {
				m := *r.Meta
				meta = &m
			}
			return nil
		}
		if r.Seq > snapSeq {
			state.Apply(r)
		}
		return nil
	})
	if err != nil {
		return nil, nil, nil, err
	}
	rep.Records = wi.records
	rep.LastSeq = wi.lastSeq
	if snapSeq > rep.LastSeq {
		rep.LastSeq = snapSeq
	}
	rep.Sealed = state.Sealed
	rep.Truncated = wi.truncated
	rep.Clean = wi.truncated == nil
	return state, meta, rep, nil
}

// WalkRecords invokes fn for every valid record in sequence order,
// read-only (offline inspection). It stops early if fn returns false
// and returns the truncation point, if any.
func WalkRecords(dir string, fn func(*Record) bool) (*Truncation, error) {
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	// The newest valid snapshot's LastSeq legitimizes boundary jumps,
	// exactly as in Open and Verify.
	snaps, err := listSnapshots(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: %w", err)
	}
	var snapSeq uint64
	for _, si := range snaps {
		if snap, serr := readSnapshotFile(si.path); serr == nil {
			snapSeq = snap.LastSeq
			break
		}
	}
	stop := fmt.Errorf("stop")
	wi, err := walkLog(segs, snapSeq, func(r *Record) error {
		if !fn(r) {
			return stop
		}
		return nil
	})
	if err == stop {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	return wi.truncated, nil
}
