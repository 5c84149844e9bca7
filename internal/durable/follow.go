package durable

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"time"
)

// Catch-up reader. A Follower serves a replication stream that is
// behind the log: it streams the log's published records in sequence
// order from the segment files, with its own descriptors, re-listing
// the directory when a segment runs dry to pick up the rotation
// successor. It never waits for an append. Once it has delivered every
// published record, its stream is caught up and it hands the stream to
// the group-commit leader (Handoff): from then on each leader ships the
// batch it flushed, from memory, before its fsync, and the stream never
// reads a segment again. A replication server runs one Follower per
// standby that connects or reconnects behind the log.
//
// A Follower never reads past the published watermark, so it cannot
// see a torn frame in a healthy log: everything at or below the
// watermark was buffered whole and flushed whole. A short or
// checksum-failing frame below the watermark therefore gets one retry
// (the read may have raced pruning) and is then reported as real
// corruption.

var (
	// ErrCompacted reports that the requested resume point has been
	// pruned into a snapshot; the consumer must bootstrap from a
	// snapshot instead of the log tail.
	ErrCompacted = errors.New("durable: requested sequence compacted into a snapshot")
	// ErrFollowerClosed is returned by Next after Close or Handoff.
	ErrFollowerClosed = errors.New("durable: follower closed")
	// ErrCaughtUp is returned by Next once every published record has
	// been delivered and the log is still open: the stream is caught
	// up, and Handoff passes it to the group-commit leader.
	ErrCaughtUp = errors.New("durable: follower caught up with the log")
)

// errRetryFollow signals an internal transient condition (rotation or
// prune race): re-check the watermark and try again.
var errRetryFollow = errors.New("durable: follower retry")

// Follower is a sequential reader positioned after some sequence
// number. Not safe for concurrent use.
type Follower struct {
	p    *Plane
	next uint64 // sequence number of the next record to deliver

	f        *os.File
	br       *bufio.Reader
	path     string
	segFirst uint64
	offset   int64 // byte offset of the next unread frame within f

	// corruptAt remembers the offset of a frame that failed to decode so
	// a second failure at the same spot is reported instead of retried.
	corruptAt int64

	done bool // after Close or Handoff
}

// Follow returns a Follower that yields records with Seq > afterSeq in
// order. Pass 0 to stream the whole retained log; if afterSeq+1 has
// been pruned into a snapshot, the first Next returns ErrCompacted.
func (p *Plane) Follow(afterSeq uint64) *Follower {
	return &Follower{p: p, next: afterSeq + 1, corruptAt: -1}
}

// Close releases the follower's file handle; Next then returns
// ErrFollowerClosed.
func (fl *Follower) Close() {
	fl.done = true
	fl.closeFile()
}

// Next returns the next published record's sequence number and frame
// payload: the record's JSON exactly as the appender encoded it, which a
// replication stream ships as is. Only the sequence is decoded. Once
// every published record has been delivered it returns ErrCaughtUp
// while the log is open and ErrClosed once it has ended (closed,
// crashed or failed). It returns ErrCompacted if the resume point has
// been pruned, and ErrFollowerClosed after Close or Handoff.
func (fl *Follower) Next() (uint64, []byte, error) {
	for {
		if fl.done {
			return 0, nil, ErrFollowerClosed
		}
		fl.p.mu.Lock()
		visible := fl.p.visible
		ended := fl.p.endedLocked()
		fl.p.mu.Unlock()
		if visible < fl.next {
			if ended {
				fl.closeFile()
				return 0, nil, ErrClosed
			}
			return 0, nil, ErrCaughtUp
		}
		seq, payload, err := fl.readNext(visible)
		if err == errRetryFollow {
			if ended {
				// No new flush can resolve the race; treat as EOF.
				fl.closeFile()
				return 0, nil, ErrClosed
			}
			// Benign race with rotation or pruning: the segment list or
			// file content is mid-change. Back off briefly.
			time.Sleep(200 * time.Microsecond)
			continue
		}
		return seq, payload, err
	}
}

// Handoff hands a caught-up follower's stream to the group-commit
// leader. Under the log's lock it checks that every published record
// has been delivered; if so, ship joins the streams the leaders feed,
// the follower closes, and Handoff returns true with a channel that is
// closed once the log has ended (closed, crashed or failed) and will
// publish nothing more. From then on the leader that publishes a batch
// calls ship with the batch's frame payloads, in sequence order, after
// flushing them and before their fsync, with no lock held; so the
// payloads of an Append reach ship before the Append returns. ship must
// not retain the batch, and it must return within a bounded time (a
// replication stream writes with a deadline): every later batch waits
// for it. An error from ship detaches it.
//
// Handoff returns false, and the follower stays open, when a batch was
// published since Next reported ErrCaughtUp or the log has ended: keep
// reading with Next.
func (fl *Follower) Handoff(ship func(batch [][]byte) error) (<-chan struct{}, bool) {
	p := fl.p
	p.mu.Lock()
	if fl.done || p.visible >= fl.next || p.endedLocked() {
		p.mu.Unlock()
		return nil, false
	}
	p.shippers = append(p.shippers, &shipper{ship: ship})
	end := p.end
	p.mu.Unlock()
	fl.Close()
	return end, true
}

// readNext reads forward until it delivers the record numbered
// fl.next and its frame payload. Caller guarantees fl.next <= visible.
func (fl *Follower) readNext(visible uint64) (uint64, []byte, error) {
	for {
		if fl.f == nil {
			if err := fl.openSegmentFor(fl.next); err != nil {
				return 0, nil, err
			}
		}
		payload, n, err := readFrame(fl.br)
		if err == io.EOF {
			// Segment exhausted but the wanted record is flushed: it
			// lives in a rotation successor. (If listing finds none yet
			// we raced the rotation; retry.)
			rotated, rerr := fl.advanceSegment()
			if rerr != nil {
				return 0, nil, rerr
			}
			if !rotated {
				return 0, nil, errRetryFollow
			}
			continue
		}
		var corrupt *corruptError
		if errors.As(err, &corrupt) {
			// Below the watermark every frame was flushed whole, so a
			// bad read is either a race with pruning (the file vanished
			// under us mid-read) or genuine corruption. Re-open at the
			// same offset once; a repeat is real.
			if fl.corruptAt == fl.offset {
				return 0, nil, fmt.Errorf("durable: follower: corrupt frame in %s at offset %d: %s", fl.path, fl.offset, corrupt.reason)
			}
			fl.corruptAt = fl.offset
			if rerr := fl.reopenAtOffset(); rerr != nil {
				return 0, nil, rerr
			}
			return 0, nil, errRetryFollow
		}
		if err != nil {
			return 0, nil, fmt.Errorf("durable: follower: reading %s: %w", fl.path, err)
		}
		fl.offset += n
		fl.corruptAt = -1
		// The contiguity check needs the sequence alone; whoever
		// applies the record decodes the payload in full.
		var rec struct {
			Seq uint64 `json:"seq"`
		}
		if derr := json.Unmarshal(payload, &rec); derr != nil {
			return 0, nil, fmt.Errorf("durable: follower: decoding record in %s: %w", fl.path, derr)
		}
		if rec.Seq < fl.next {
			// Resumed mid-segment: skip records already delivered.
			continue
		}
		if rec.Seq != fl.next {
			return 0, nil, fmt.Errorf("durable: follower: log discontinuity in %s: want seq %d, found %d", fl.path, fl.next, rec.Seq)
		}
		fl.next++
		return rec.Seq, payload, nil
	}
}

// openSegmentFor positions the follower at the start of the newest
// segment whose first sequence is <= seq. ErrCompacted if every
// retained segment starts after seq (or none remain).
func (fl *Follower) openSegmentFor(seq uint64) error {
	segs, err := listSegments(fl.p.opts.Dir)
	if err != nil {
		return fmt.Errorf("durable: follower: %w", err)
	}
	idx := -1
	for i := range segs {
		if segs[i].firstSeq <= seq {
			idx = i
		}
	}
	if idx < 0 {
		return ErrCompacted
	}
	return fl.openSegment(segs[idx])
}

// advanceSegment closes the current segment and opens its successor —
// the next segment on disk whose first sequence can contain fl.next.
// Returns false (and leaves the current segment open) when no successor
// exists yet.
func (fl *Follower) advanceSegment() (bool, error) {
	segs, err := listSegments(fl.p.opts.Dir)
	if err != nil {
		return false, fmt.Errorf("durable: follower: %w", err)
	}
	for i := range segs {
		if segs[i].firstSeq > fl.segFirst && segs[i].firstSeq <= fl.next {
			fl.closeFile()
			if oerr := fl.openSegment(segs[i]); oerr != nil {
				return false, oerr
			}
			return true, nil
		}
	}
	return false, nil
}

// openSegment opens one segment file and verifies its magic.
func (fl *Follower) openSegment(si segmentInfo) error {
	f, err := os.Open(si.path)
	if err != nil {
		if os.IsNotExist(err) {
			// Pruned between listing and open; the caller re-resolves.
			return errRetryFollow
		}
		return fmt.Errorf("durable: follower: %w", err)
	}
	br := bufio.NewReader(f)
	magic := make([]byte, len(segmentMagic))
	if _, err := io.ReadFull(br, magic); err != nil || string(magic) != segmentMagic {
		f.Close()
		return fmt.Errorf("durable: follower: segment %s: bad magic", si.name)
	}
	fl.f = f
	fl.br = br
	fl.path = si.path
	fl.segFirst = si.firstSeq
	fl.offset = int64(len(segmentMagic))
	return nil
}

// reopenAtOffset discards buffered state and re-reads the current
// segment from the follower's frame offset.
func (fl *Follower) reopenAtOffset() error {
	path, offset := fl.path, fl.offset
	fl.closeFile()
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return errRetryFollow
		}
		return fmt.Errorf("durable: follower: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return fmt.Errorf("durable: follower: %w", err)
	}
	fl.f = f
	fl.br = bufio.NewReader(f)
	fl.path = path
	fl.offset = offset
	return nil
}

func (fl *Follower) closeFile() {
	if fl.f != nil {
		fl.f.Close()
		fl.f = nil
		fl.br = nil
	}
}
