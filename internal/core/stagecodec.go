package core

import "fmt"

// Wire codecs for row staging, the one protocol that fills a shard's
// table storage after boot. Online resharding, replica rebuild and
// freshness publishing all read rows with sparse.read and land them with
// sparse.stage.{begin,rows,commit,abort}: rows stream into a session's
// staging in the table's cold-tier encoding, and one commit installs the
// whole session at a new epoch. Same minimal little-endian framing as the
// serving codecs in codec.go, so a standalone deployment (drmserve
// processes) stages exactly like the in-process cluster.

// Row-read and staging methods served by SparseShard.Handle.
const (
	MethodSparseRead  = "sparse.read"
	MethodStageBegin  = "sparse.stage.begin"
	MethodStageRows   = "sparse.stage.rows"
	MethodStageCommit = "sparse.stage.commit"
	MethodStageAbort  = "sparse.stage.abort"
)

// ReadRequest asks a shard for RowCount rows of a held table starting at
// RowStart. RowCount 0 probes shape only.
type ReadRequest struct {
	TableID   int32
	PartIndex int32
	RowStart  int32
	RowCount  int32
}

// ReadResponse returns the requested row range plus the table's full
// shape and cold-tier encoding, so a reader can size a stream (and
// allocate matching staging) without a separate metadata call. Fp32
// tables travel in Data; encoded tiers travel verbatim in Raw (RowCount
// rows of the encoding's wire stride).
type ReadResponse struct {
	Rows int32 // total rows held at the shard
	Dim  int32
	Enc  int32
	Data []float32 // fp32: RowCount×Dim values starting at RowStart
	Raw  []byte    // encoded tiers: RowCount rows of encoded bytes
}

// StageBegin adds one table (or row-partition) of Rows×Dim in cold-tier
// encoding Enc (TierEnc*) to a staging session. Session 0 opens a new
// session; the shard assigns its ID in the StageRef response, so
// concurrent orchestrators never share one.
//
// Without Clone, staging starts empty and must be filled row by row
// (migration, rebuild). With Clone, staging starts as a copy of the
// table the shard holds, so untouched rows carry over verbatim and
// streamed rows overwrite in place (freshness deltas); the shape fields
// are then a cross-check against the held copy, so an orchestrator
// working from a stale view of the table set fails loudly instead of
// corrupting staging.
type StageBegin struct {
	Session   uint64
	TableID   int32
	PartIndex int32
	Rows      int32
	Dim       int32
	Enc       int32
	Clone     bool
}

// StageRef names a staging session: the response to sparse.stage.begin
// and the request of sparse.stage.abort.
type StageRef struct {
	Session uint64
}

// StageRows delivers one row range into a session's staged table, in the
// encoding its StageBegin declared.
type StageRows struct {
	Session   uint64
	TableID   int32
	PartIndex int32
	RowStart  int32
	Dim       int32
	Enc       int32
	Data      []float32
	Raw       []byte
}

// StageCommit installs every table of a session at one new epoch. A
// nonzero Version also advances the shard's model version (a freshness
// publish).
type StageCommit struct {
	Session uint64
	Version uint64
}

// StageCommitResponse reports the cutover: the shard's new forwarding
// epoch, its model version after the commit, and how many staged tables
// were installed (cloned tables migrated away mid-session are skipped —
// their new holder receives the delta from the publisher directly).
type StageCommitResponse struct {
	Epoch   uint64
	Version uint64
	Tables  int32
}

// decodeInt32s reads consecutive u32 fields into dsts.
func decodeInt32s(r *reader, dsts ...*int32) error {
	for _, dst := range dsts {
		v, err := r.u32()
		if err != nil {
			return err
		}
		*dst = int32(v)
	}
	return nil
}

// EncodeReadRequest serializes a row-range read request.
func EncodeReadRequest(m *ReadRequest) []byte {
	var w buffer
	w.u32(uint32(m.TableID))
	w.u32(uint32(m.PartIndex))
	w.u32(uint32(m.RowStart))
	w.u32(uint32(m.RowCount))
	return w.b
}

// DecodeReadRequest parses a row-range read request.
func DecodeReadRequest(b []byte) (*ReadRequest, error) {
	r := reader{b: b}
	out := &ReadRequest{}
	if err := decodeInt32s(&r, &out.TableID, &out.PartIndex, &out.RowStart, &out.RowCount); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeReadResponse serializes a row-range read response.
func EncodeReadResponse(m *ReadResponse) []byte {
	var w buffer
	w.u32(uint32(m.Rows))
	w.u32(uint32(m.Dim))
	w.u32(uint32(m.Enc))
	w.f32s(m.Data)
	w.bytes(m.Raw)
	return w.b
}

// DecodeReadResponse parses a row-range read response.
func DecodeReadResponse(b []byte) (*ReadResponse, error) {
	r := reader{b: b}
	out := &ReadResponse{}
	if err := decodeInt32s(&r, &out.Rows, &out.Dim, &out.Enc); err != nil {
		return nil, err
	}
	var err error
	if out.Data, err = r.f32s(); err != nil {
		return nil, err
	}
	if out.Raw, err = r.bytes(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeStageBegin serializes a staging request.
func EncodeStageBegin(m *StageBegin) []byte {
	var w buffer
	w.u64(m.Session)
	for _, v := range []int32{m.TableID, m.PartIndex, m.Rows, m.Dim, m.Enc} {
		w.u32(uint32(v))
	}
	encodeBool(&w, m.Clone)
	return w.b
}

// DecodeStageBegin parses a staging request.
func DecodeStageBegin(b []byte) (*StageBegin, error) {
	r := reader{b: b}
	out := &StageBegin{}
	var err error
	if out.Session, err = r.u64(); err != nil {
		return nil, err
	}
	if err := decodeInt32s(&r, &out.TableID, &out.PartIndex, &out.Rows, &out.Dim, &out.Enc); err != nil {
		return nil, err
	}
	if out.Clone, err = decodeBool(&r); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeStageRef serializes a session reference.
func EncodeStageRef(m *StageRef) []byte {
	var w buffer
	w.u64(m.Session)
	return w.b
}

// DecodeStageRef parses a session reference.
func DecodeStageRef(b []byte) (*StageRef, error) {
	r := reader{b: b}
	s, err := r.u64()
	if err != nil {
		return nil, err
	}
	return &StageRef{Session: s}, nil
}

// EncodeStageRows serializes a row-range delivery.
func EncodeStageRows(m *StageRows) []byte {
	var w buffer
	w.u64(m.Session)
	for _, v := range []int32{m.TableID, m.PartIndex, m.RowStart, m.Dim, m.Enc} {
		w.u32(uint32(v))
	}
	w.f32s(m.Data)
	w.bytes(m.Raw)
	return w.b
}

// DecodeStageRows parses a row-range delivery, rejecting payloads that
// are not whole rows of the declared dim and encoding.
func DecodeStageRows(b []byte) (*StageRows, error) {
	r := reader{b: b}
	out := &StageRows{}
	var err error
	if out.Session, err = r.u64(); err != nil {
		return nil, err
	}
	if err := decodeInt32s(&r, &out.TableID, &out.PartIndex, &out.RowStart, &out.Dim, &out.Enc); err != nil {
		return nil, err
	}
	if out.Data, err = r.f32s(); err != nil {
		return nil, err
	}
	if out.Raw, err = r.bytes(); err != nil {
		return nil, err
	}
	if out.Enc == TierEncFP32 && out.Dim > 0 && int32(len(out.Data))%out.Dim != 0 {
		return nil, fmt.Errorf("core: stage rows has %d values for dim %d", len(out.Data), out.Dim)
	}
	if out.Enc != TierEncFP32 && out.Dim > 0 {
		stride, serr := tierEncStride(out.Enc, out.Dim)
		if serr != nil {
			return nil, serr
		}
		if len(out.Raw)%stride != 0 {
			return nil, fmt.Errorf("core: stage rows has %d raw bytes for row stride %d", len(out.Raw), stride)
		}
	}
	return out, nil
}

// EncodeStageCommit serializes a commit request.
func EncodeStageCommit(m *StageCommit) []byte {
	var w buffer
	w.u64(m.Session)
	w.u64(m.Version)
	return w.b
}

// DecodeStageCommit parses a commit request.
func DecodeStageCommit(b []byte) (*StageCommit, error) {
	r := reader{b: b}
	out := &StageCommit{}
	var err error
	if out.Session, err = r.u64(); err != nil {
		return nil, err
	}
	if out.Version, err = r.u64(); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeStageCommitResponse serializes a commit acknowledgement.
func EncodeStageCommitResponse(m *StageCommitResponse) []byte {
	var w buffer
	w.u64(m.Epoch)
	w.u64(m.Version)
	w.u32(uint32(m.Tables))
	return w.b
}

// DecodeStageCommitResponse parses a commit acknowledgement.
func DecodeStageCommitResponse(b []byte) (*StageCommitResponse, error) {
	r := reader{b: b}
	out := &StageCommitResponse{}
	var err error
	if out.Epoch, err = r.u64(); err != nil {
		return nil, err
	}
	if out.Version, err = r.u64(); err != nil {
		return nil, err
	}
	if err := decodeInt32s(&r, &out.Tables); err != nil {
		return nil, err
	}
	return out, nil
}
