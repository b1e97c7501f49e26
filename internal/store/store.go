// Package store is the durability subsystem: an append-only write-ahead
// log of workspace flushes and distribution events, periodic compacting
// snapshots of full system state, and a recovery path that rebuilds the
// state from the latest snapshot plus the log tail.
//
// The log subscribes (via internal/core's wiring) to each workspace's
// flush journal — the base-level changes plus the derived delta of every
// committed transaction — so replay can rebuild a workspace byte-
// identically without re-running evaluation or re-verifying signatures.
// Records are CRC-framed (length prefix + checksum); a torn or corrupted
// tail ends the valid prefix and recovery truncates it, so a crash mid-
// append loses at most the unsynced suffix and never corrupts earlier
// records. Appends are group-committed off the flush hot path: records
// buffer in memory (no syscall on the flush path) and a commit goroutine
// writes and syncs them at the policy's sync points — under FsyncAlways,
// one write and one fsync per batch of concurrent appenders.
//
// On disk a store directory holds one snapshot/log generation pair:
//
//	snap-<seq>.snap   full system image (absent before the first checkpoint)
//	wal-<seq>.log     flushes and events since that snapshot
//
// Both hold the same records (see Record): a snapshot is a compacted
// log. Checkpoint writes snap-<seq+1> from live state, rotates the log,
// and deletes the previous generation. Recovery returns the newest valid
// snapshot's records followed by its log's, as one stream to replay.
package store

import (
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"lbtrust/internal/dist"
	"lbtrust/internal/workspace"
)

// Options configures a store.
type Options struct {
	// Fsync selects the log sync policy (default FsyncInterval).
	Fsync FsyncPolicy
	// FsyncInterval is the timer for FsyncInterval (default 50ms).
	FsyncInterval time.Duration
}

// Store is an open durability directory: one active WAL segment plus the
// snapshot (and any earlier segments) it extends.
type Store struct {
	dir  string
	opts Options

	// ckptMu serializes checkpoints. It is never held together with mu
	// across a blocking operation, and capture callbacks run with NO
	// store lock held — callers' capture functions take system and
	// workspace locks, and flush paths holding those locks append to the
	// log, so holding the store lock across capture would deadlock.
	ckptMu sync.Mutex

	mu      sync.RWMutex
	seq     uint64
	wal     *walAppender
	tipSize int64 // recovered byte length of the tip segment at open
	closed  bool

	// Observability attachments (see SetObs in metrics.go). Atomic so
	// the commit goroutine and appenders read them without s.mu.
	obsM   atomic.Pointer[Metrics]
	obsLog atomic.Pointer[slog.Logger]
}

// Recovered is what Open found on disk: the records of the newest valid
// snapshot (none on a directory never checkpointed) followed by the WAL
// records after it, in log order — one stream, replayed by one
// interpreter. Truncated reports that a torn or corrupt log tail was
// dropped.
type Recovered struct {
	Records   []*Record
	Truncated bool
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("snap-%08d.snap", seq))
}

func walPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.log", seq))
}

// Open opens (creating if needed) a store directory and returns the store
// together with whatever state it recovered. The caller replays
// Recovered into a fresh system before logging anything new.
//
// Log and snapshot files are created 0600 inside a 0700 directory: the
// write-ahead log carries the system's key material (RSA private keys,
// shared secrets) alongside its facts.
func Open(dir string, opts Options) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o700); err != nil {
		return nil, nil, err
	}
	s := &Store{dir: dir, opts: opts}
	rec := &Recovered{}

	// Newest structurally sound snapshot wins. A snapshot that exists but
	// cannot be read is an error, not an empty system: a corrupt newest
	// snapshot with no surviving older generation must not silently
	// discard the directory's state.
	seqs, err := generations(dir)
	if err != nil {
		return nil, nil, err
	}
	var snapErr error
	snapSeq := uint64(0)
	for i := len(seqs) - 1; i >= 0 && rec.Records == nil; i-- {
		path := snapPath(dir, seqs[i])
		if _, err := os.Stat(path); err != nil {
			continue
		}
		records, err := readSnapshotFile(path)
		if err != nil {
			// Torn or corrupt: try the previous generation, if any.
			if snapErr == nil {
				snapErr = fmt.Errorf("store: snapshot %s unreadable: %w", path, err)
			}
			continue
		}
		rec.Records = records
		snapSeq = seqs[i]
	}
	if snapErr != nil && rec.Records == nil {
		return nil, nil, snapErr
	}

	// Replay every log segment at or after the snapshot, in order — an
	// interrupted checkpoint legitimately leaves wal-(N+1) next to
	// snap-N. Only the newest segment may carry a torn tail (older
	// segments were drained before rotation); it is truncated so new
	// appends follow the last valid record.
	var walSeqs []uint64
	for _, q := range seqs {
		if q < snapSeq {
			continue
		}
		if _, err := os.Stat(walPath(dir, q)); err == nil {
			walSeqs = append(walSeqs, q)
		}
	}
	if len(walSeqs) == 0 {
		walSeqs = []uint64{snapSeq}
	}
	s.seq = walSeqs[len(walSeqs)-1]
	var tip *os.File
	for i, q := range walSeqs {
		last := i == len(walSeqs)-1
		flags := os.O_RDONLY
		if last {
			flags = os.O_CREATE | os.O_RDWR
		}
		f, err := os.OpenFile(walPath(dir, q), flags, 0o600)
		if err != nil {
			return nil, nil, err
		}
		records, good, torn, err := readRecords(f)
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		if torn && !last {
			f.Close()
			return nil, nil, fmt.Errorf("store: log segment %s has a torn or unreadable record in the middle (only the newest segment may be torn)", walPath(dir, q))
		}
		rec.Truncated = rec.Truncated || torn
		rec.Records = append(rec.Records, records...)
		if !last {
			f.Close()
			continue
		}
		if torn {
			if err := f.Truncate(good); err != nil {
				f.Close()
				return nil, nil, err
			}
		}
		if _, err := f.Seek(0, 2); err != nil {
			f.Close()
			return nil, nil, err
		}
		tip = f
		s.tipSize = good
	}
	s.wal = newWALAppender(tip, opts.Fsync, opts.FsyncInterval, &s.obsM)
	s.wal.setSize(s.tipSize)
	return s, rec, nil
}

// generations lists the snapshot/log sequence numbers present, sorted.
func generations(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	set := map[uint64]bool{}
	for _, e := range entries {
		var seq uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d.snap", &seq); n == 1 {
			set[seq] = true
		}
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.log", &seq); n == 1 {
			set[seq] = true
		}
	}
	out := make([]uint64, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Seq returns the current snapshot/log generation number; Checkpoint
// increments it.
func (s *Store) Seq() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seq
}

// LogSize returns the byte length of the active log segment (recovered
// prefix plus appends, buffered or written). It resets on Checkpoint's
// rotation; automatic checkpoint triggers poll it.
func (s *Store) LogSize() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return 0
	}
	return s.wal.Size()
}

// Policy returns the configured fsync policy.
func (s *Store) Policy() FsyncPolicy { return s.opts.Fsync }

// Append logs one record. Under FsyncAlways it returns after the record
// is durable (sharing the batch's fsync with concurrent appenders);
// otherwise it returns once the record is buffered, surfacing any sticky
// log-write error.
func (s *Store) Append(r *Record) error {
	return s.AppendPayload(r.Encode())
}

// AppendPayload logs one pre-encoded record payload.
func (s *Store) AppendPayload(payload []byte) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return fmt.Errorf("store: store is closed")
	}
	return s.wal.Append(payload, false)
}

// payloadPool recycles encode buffers: AppendPayload copies the payload
// into the log buffer, so the encode scratch can be reused immediately.
// Without this, per-flush encode garbage inflates GC mark work enough to
// show up as Sync latency at large database sizes.
var payloadPool = sync.Pool{New: func() any { b := make([]byte, 0, 1024); return &b }}

// LogFlush logs one workspace flush journal, honoring the fsync policy
// (under FsyncAlways it returns only once durable).
func (s *Store) LogFlush(principal string, j *workspace.FlushJournal) error {
	return s.logFlush(principal, j, false)
}

// LogFlushNoWait enqueues one workspace flush journal without waiting
// for durability even under FsyncAlways. It exists for callers that log
// while holding locks readers contend on: enqueue under the lock (commit
// order), then make the transaction wait with WaitDurable after
// releasing it, so concurrent commits group into one fsync instead of
// serializing the workspace behind the disk.
func (s *Store) LogFlushNoWait(principal string, j *workspace.FlushJournal) error {
	return s.logFlush(principal, j, true)
}

func (s *Store) logFlush(principal string, j *workspace.FlushJournal, noWait bool) error {
	bp := payloadPool.Get().(*[]byte)
	buf := AppendFlushPayload((*bp)[:0], principal, j)
	var err error
	if noWait {
		s.mu.RLock()
		if s.closed {
			err = fmt.Errorf("store: store is closed")
		} else {
			err = s.wal.AppendNoSync(buf)
		}
		s.mu.RUnlock()
	} else {
		err = s.AppendPayload(buf)
	}
	*bp = buf[:0]
	payloadPool.Put(bp)
	return err
}

// WaitDurable blocks until everything enqueued so far is durable under
// the store's policy. It is a no-op unless the policy is FsyncAlways
// (interval and off policies never make commits wait). The fsync wait
// happens with NO store lock held — holding even the read lock across a
// disk sync would let a concurrent Checkpoint (a writer) queue behind it
// and stall every other commit's append. If the segment is rotated away
// while we wait, its Close drained and synced everything we appended, so
// the barrier degrades to collecting its sticky error.
func (s *Store) WaitDurable() error {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("store: store is closed")
	}
	wal := s.wal
	always := s.opts.Fsync == FsyncAlways
	s.mu.RUnlock()
	if !always {
		return nil
	}
	return wal.Barrier()
}

// LogDistEvent logs one distribution runtime event, mapping it to its
// record kind. Placements return nil without logging — they ride on the
// prin records written when principals are created. Core and the bench
// harness both use this, so the event→record mapping exists exactly
// once.
func (s *Store) LogDistEvent(ev dist.Event) error {
	switch ev.Kind {
	case dist.EventMap:
		return s.Append(&Record{Kind: KindMap, Fields: []string{ev.Src, ev.Dst}})
	case dist.EventReset:
		return s.Append(&Record{Kind: KindReset, Fields: []string{ev.Target}})
	case dist.EventShip:
		bp := payloadPool.Get().(*[]byte)
		buf := AppendShipsPayload((*bp)[:0], ev.Ships)
		err := s.AppendPayload(buf)
		*bp = buf[:0]
		payloadPool.Put(bp)
		return err
	}
	return nil
}

// Checkpoint rotates the log, captures a snapshot, writes it, and
// deletes the superseded generations. The rotation happens first and the
// capture runs with NO store lock held: flush paths append to the log
// while holding system/workspace locks that capture also needs, so
// capturing under the store lock would deadlock them. Correctness does
// not need the lock: every record in a pre-rotation segment committed
// before the capture started, so its effect is in the snapshot, and a
// record racing into the new segment during capture replays idempotently
// over it. A crash between rotation and the snapshot write leaves
// snap-N + wal-N + wal-(N+1), which Open replays in order.
//
// capture returns the snapshot's body as record payloads, in replay
// order, plus the shipped-set generation that rides on the snap-begin
// record; the store adds the bracket.
func (s *Store) Checkpoint(capture func() (gen uint64, payloads [][]byte, err error)) error {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if m := s.obsM.Load(); m != nil {
		start := time.Now()
		defer func() {
			m.checkpoints.Inc()
			m.checkpointSecs.Observe(time.Since(start))
			if log := s.obsLog.Load(); log != nil {
				log.Debug("checkpoint finished", "seq", s.Seq(), "duration", time.Since(start))
			}
		}()
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("store: store is closed")
	}
	// Drain the old segment to disk before anything depends on it, then
	// swap in the new one. An empty tip segment is reused instead of
	// rotated: a checkpoint retry after a failed snapshot write (disk
	// full, permissions) must not mint a fresh near-empty generation per
	// attempt — records racing into the reused segment during capture
	// replay idempotently over the snapshot, exactly as with a rotated
	// one.
	if err := s.wal.Barrier(); err != nil {
		s.mu.Unlock()
		return fmt.Errorf("store: draining log before checkpoint: %w", err)
	}
	newSeq := s.seq
	var old *walAppender
	if s.wal.Size() > 0 {
		newSeq = s.seq + 1
		f, err := os.OpenFile(walPath(s.dir, newSeq), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o600)
		if err != nil {
			s.mu.Unlock()
			return fmt.Errorf("store: rotating log: %w", err)
		}
		old = s.wal
		s.wal = newWALAppender(f, s.opts.Fsync, s.opts.FsyncInterval, &s.obsM)
		s.seq = newSeq
	}
	s.mu.Unlock()

	if old != nil {
		if err := old.Close(); err != nil {
			return fmt.Errorf("store: closing rotated log: %w", err)
		}
	}
	gen, payloads, err := capture()
	if err != nil {
		return err
	}
	if err := writeSnapshotFile(s.dir, snapPath(s.dir, newSeq), gen, payloads); err != nil {
		return fmt.Errorf("store: writing snapshot: %w", err)
	}
	// The snapshot covers every older generation; delete them all.
	seqs, err := generations(s.dir)
	if err == nil {
		for _, q := range seqs {
			if q < newSeq {
				os.Remove(walPath(s.dir, q))
				os.Remove(snapPath(s.dir, q))
			}
		}
	}
	return syncDir(s.dir)
}

// Sync forces everything queued so far to disk regardless of policy
// (except FsyncOff, where it only drains the queue to the OS).
func (s *Store) Sync() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return fmt.Errorf("store: store is closed")
	}
	return s.wal.Barrier()
}

// Close drains and syncs the log and closes the store. Further appends
// fail.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	return s.wal.Close()
}
