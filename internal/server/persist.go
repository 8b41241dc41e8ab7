package server

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"log/slog"
	"sort"
	"sync"
	"time"

	"xmlac"
	"xmlac/internal/storage"
)

// The persistence glue between the Store and internal/storage. The storage
// engine is payload-blind; this file composes its opaque records and
// interprets them again on replay:
//
//   - RecordRegister — Meta: registerMeta JSON, Blob: the full container.
//   - RecordPolicy   — Meta: policyMeta JSON (rules + timestamp).
//   - RecordPatch    — Meta: the marshalled binary UpdateDelta (PR 5's wire
//     format), Blob: prefixLen u32 | new container prefix | dirty chunk
//     bytes | sha256 of the new container. Clean chunks are reconstructed
//     from the previous version's blob — the chunk layout is position-bound,
//     so a clean chunk is byte-identical at the same offsets — and the hash
//     check fails recovery loudly on any mismatch.
//   - RecordDelete   — no payload.
//
// A checkpoint writes the same records: per document, one registration
// carrying the retained update history (so delta resync keeps working
// across a restart), then one policy record per subject. Recovery replays
// snapshot and tail through one loop.

// DefaultCheckpointWALBytes is the log tail size that triggers a checkpoint
// when Options.CheckpointWALBytes is unset.
const DefaultCheckpointWALBytes = 8 << 20

// registerMeta is the durable registration metadata of one document.
type registerMeta struct {
	Scheme     string      `json:"scheme"`
	Passphrase string      `json:"passphrase"`
	CreatedAt  time.Time   `json:"created_at"`
	Stats      xmlac.Stats `json:"stats"`
	// Deltas is the retained update history, each step in the binary
	// UpdateDelta wire format (base64 in the JSON). Only checkpoints carry
	// it: a live registration starts a fresh history.
	Deltas [][]byte `json:"deltas,omitempty"`
}

// policyRuleMeta mirrors xmlac.Rule for the durable form.
type policyRuleMeta struct {
	ID     string `json:"id"`
	Sign   string `json:"sign"`
	Object string `json:"object"`
}

// policyMeta is the durable form of one subject's policy record (the
// fingerprint is content-addressed and recomputed on replay).
type policyMeta struct {
	Rules     []policyRuleMeta `json:"rules"`
	UpdatedAt time.Time        `json:"updated_at"`
}

func metaToPolicy(subject string, m policyMeta) xmlac.Policy {
	p := xmlac.Policy{Subject: subject}
	for _, r := range m.Rules {
		p.Rules = append(p.Rules, xmlac.Rule{ID: r.ID, Sign: r.Sign, Object: r.Object})
	}
	return p
}

// persister owns the storage engine on behalf of the server. A nil persister
// is an in-memory store: hold and the log methods are no-ops.
type persister struct {
	engine    *storage.Engine
	store     *Store
	logger    *slog.Logger
	threshold int64

	// mu orders mutations against checkpoints: each mutation holds it shared
	// while it applies to the store and appends its record, a checkpoint
	// exclusively — so a snapshot never holds a mutation whose record lands
	// after it in the log, and replay meets every mutation exactly once.
	mu sync.RWMutex
}

// hold admits one mutation. The caller applies it to the store and logs its
// record, then calls release, which takes a compacting checkpoint once the
// log has grown past the threshold.
func (p *persister) hold() (release func()) {
	if p == nil {
		return func() {}
	}
	p.mu.RLock()
	return func() {
		p.mu.RUnlock()
		if err := p.checkpoint(); err != nil {
			// The mutation is durable either way; a failed compaction only
			// leaves a longer log. Surface it in the log, not the request.
			p.logger.Error("storage checkpoint failed", slog.Any("error", err))
		}
	}
}

// registerRecord renders a document's registration: its metadata, the given
// retained history and its current container.
func registerRecord(e *DocumentEntry, deltas []*xmlac.UpdateDelta) storage.Record {
	e.mu.RLock()
	blob := e.blob
	e.mu.RUnlock()
	meta := registerMeta{
		Scheme:     string(e.Scheme),
		Passphrase: e.passphrase,
		CreatedAt:  e.CreatedAt,
		Stats:      e.Stats,
	}
	for _, d := range deltas {
		meta.Deltas = append(meta.Deltas, d.Marshal())
	}
	return storage.Record{Type: storage.RecordRegister, Doc: e.ID, Meta: mustJSON(meta), Blob: blob}
}

// policyRecord renders one subject's policy installation.
func policyRecord(docID, subject string, rec PolicyRecord) storage.Record {
	m := policyMeta{UpdatedAt: rec.UpdatedAt}
	for _, r := range rec.Policy.Rules {
		m.Rules = append(m.Rules, policyRuleMeta{ID: r.ID, Sign: r.Sign, Object: r.Object})
	}
	return storage.Record{Type: storage.RecordPolicy, Doc: docID, Subject: subject, Meta: mustJSON(m)}
}

// mustJSON marshals durable metadata. Every field is a plain string, time,
// int or byte-slice aggregate; a marshal failure is a programming error,
// not an operational state.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("server: marshalling durable metadata: %v", err))
	}
	return b
}

// logRegister records a (re-)registration as a full-blob record.
func (p *persister) logRegister(e *DocumentEntry) error {
	if p == nil {
		return nil
	}
	return p.engine.Append(registerRecord(e, nil))
}

// logPolicy records one subject's policy installation.
func (p *persister) logPolicy(docID, subject string, rec PolicyRecord) error {
	if p == nil {
		return nil
	}
	return p.engine.Append(policyRecord(docID, subject, rec))
}

// logPatch records one applied update as a delta record. It runs under the
// entry's update lock (DocumentEntry.Update calls it), so the published blob
// is the delta's ToVersion and records of one document land in the order
// their updates applied.
func (p *persister) logPatch(e *DocumentEntry, delta *xmlac.UpdateDelta) error {
	if p == nil {
		return nil
	}
	e.mu.RLock()
	blob := e.blob
	man := e.manifest
	e.mu.RUnlock()
	payload := make([]byte, 0, 4+man.CiphertextOffset+delta.BytesReencrypted+sha256Size)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(man.CiphertextOffset))
	payload = append(payload, blob[:man.CiphertextOffset]...)
	cs := int64(man.ChunkSize)
	for _, chunk := range delta.DirtyChunks {
		start := int64(chunk) * cs
		end := start + cs
		if end > man.CiphertextLen {
			end = man.CiphertextLen
		}
		payload = append(payload, blob[man.CiphertextOffset+start:man.CiphertextOffset+end]...)
	}
	payload = append(payload, blobSum(blob)...)
	return p.engine.Append(storage.Record{Type: storage.RecordPatch, Doc: e.ID, Meta: delta.Marshal(), Blob: payload})
}

// logDelete records a document removal.
func (p *persister) logDelete(docID string) error {
	if p == nil {
		return nil
	}
	return p.engine.Append(storage.Record{Type: storage.RecordDelete, Doc: docID})
}

// checkpoint rewrites the log as a snapshot of the store once the tail has
// grown past the threshold.
func (p *persister) checkpoint() error {
	if p.engine.WALSize() < p.threshold {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.engine.WALSize() < p.threshold {
		return nil // another mutation's checkpoint got here first
	}
	return p.engine.Checkpoint(p.snapshot())
}

// snapshot renders the store as the records that rebuild it: per document
// in id order, its registration with the retained history, then its
// policies in subject order. Callers hold p.mu exclusively, so no mutation
// is half applied while the snapshot is cut.
func (p *persister) snapshot() []storage.Record {
	p.store.mu.RLock()
	entries := make([]*DocumentEntry, 0, len(p.store.docs))
	for _, e := range p.store.docs {
		entries = append(entries, e)
	}
	p.store.mu.RUnlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].ID < entries[j].ID })
	var recs []storage.Record
	for _, e := range entries {
		e.mu.RLock()
		deltas := e.deltas
		e.mu.RUnlock()
		recs = append(recs, registerRecord(e, deltas))
		for _, subject := range e.Subjects() {
			if rec, err := e.PolicyFor(subject); err == nil {
				recs = append(recs, policyRecord(e.ID, subject, rec))
			}
		}
	}
	return recs
}

func (p *persister) close() error {
	return p.engine.Close()
}

const sha256Size = 32

// blobSum returns the sha256 of a container blob — the check value a patch
// record carries so recovery can verify its reconstruction byte for byte.
func blobSum(blob []byte) []byte {
	sum := sha256.Sum256(blob)
	return sum[:]
}

// recoverPersisted rebuilds the in-memory store by replaying every
// recovered record, the snapshot's first, then the tail's. Any
// inconsistency fails the open — a durable store that cannot reproduce its
// last acknowledged state must refuse to start, not improvise one.
func (s *Server) recoverPersisted(eng *storage.Engine) (int, error) {
	recs := eng.WALRecords()
	for i, rec := range recs {
		if err := s.replayRecord(rec); err != nil {
			return i, fmt.Errorf("replaying record %d (%q): %w", i, rec.Doc, err)
		}
	}
	return len(recs), nil
}

// replayRecord applies one recovered record to the in-memory store.
func (s *Server) replayRecord(rec storage.Record) error {
	switch rec.Type {
	case storage.RecordRegister:
		var meta registerMeta
		if err := json.Unmarshal(rec.Meta, &meta); err != nil {
			return fmt.Errorf("registration metadata: %w", err)
		}
		deltas := make([]*xmlac.UpdateDelta, len(meta.Deltas))
		for i, raw := range meta.Deltas {
			d, err := xmlac.UnmarshalUpdateDelta(raw)
			if err != nil {
				return fmt.Errorf("retained delta %d: %w", i, err)
			}
			deltas[i] = d
		}
		prot, err := xmlac.UnmarshalProtected(rec.Blob)
		if err != nil {
			return fmt.Errorf("container: %w", err)
		}
		_, err = s.store.install(rec.Doc, meta, prot, rec.Blob, deltas, nil)
		return err
	case storage.RecordPolicy:
		entry, err := s.store.Entry(rec.Doc)
		if err != nil {
			return err
		}
		var meta policyMeta
		if err := json.Unmarshal(rec.Meta, &meta); err != nil {
			return fmt.Errorf("policy metadata: %w", err)
		}
		_, err = entry.SetPolicy(rec.Subject, metaToPolicy(rec.Subject, meta), meta.UpdatedAt, nil)
		return err
	case storage.RecordPatch:
		entry, err := s.store.Entry(rec.Doc)
		if err != nil {
			return err
		}
		delta, err := xmlac.UnmarshalUpdateDelta(rec.Meta)
		if err != nil {
			return fmt.Errorf("patch delta: %w", err)
		}
		if len(rec.Blob) < 4+sha256Size {
			return fmt.Errorf("patch payload is %d bytes, shorter than its framing", len(rec.Blob))
		}
		prefixLen := int(binary.LittleEndian.Uint32(rec.Blob[:4]))
		if 4+prefixLen+sha256Size > len(rec.Blob) {
			return fmt.Errorf("patch prefix length %d exceeds the payload", prefixLen)
		}
		prefix := rec.Blob[4 : 4+prefixLen]
		dirty := rec.Blob[4+prefixLen : len(rec.Blob)-sha256Size]
		sum := rec.Blob[len(rec.Blob)-sha256Size:]
		return entry.applyRecoveredPatch(delta, prefix, dirty, sum)
	case storage.RecordDelete:
		// Replay is single-threaded, so the only possible error is
		// ErrNotFound: deleting an absent document is a no-op.
		_ = s.store.Remove(rec.Doc, nil)
		return nil
	}
	return fmt.Errorf("unknown record type %d", rec.Type)
}
