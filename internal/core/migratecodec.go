package core

import (
	"time"

	"repro/internal/sharding"
)

// Wire codecs for the online-resharding control plane: load-summary
// collection and forward installation (rows move over the staging
// protocol in stagecodec.go). Same minimal little-endian framing as the
// serving codecs in codec.go — the control plane rides the ordinary RPC
// channel, so a standalone deployment (drmserve processes) reshards
// exactly like the in-process cluster.

// Serving and resharding methods served by SparseShard.Handle.
const (
	MethodSparseRun      = "sparse.run"
	MethodSparseLoad     = "sparse.load"
	MethodMigrateForward = "sparse.migrate.forward"
)

// LoadRequest asks a shard for its load summary; Reset additionally
// clears the live accumulator so the next collection window starts
// fresh.
type LoadRequest struct {
	Reset bool
}

// MigrateForward tells the source the destination is authoritative: the
// source installs a forwarding entry (dialing Addr for service Service)
// and, when Release is set, drops its local copy. Until released, the
// source keeps double-reading its retained copy — byte-identical to the
// destination's, since table storage is immutable.
type MigrateForward struct {
	TableID   int32
	PartIndex int32
	Service   string
	Addr      string
	Release   bool
}

// EpochResponse carries a shard's forwarding epoch after a cutover step.
type EpochResponse struct {
	Epoch uint64
}

func encodeBool(w *buffer, v bool) {
	if v {
		w.u32(1)
	} else {
		w.u32(0)
	}
}

func decodeBool(r *reader) (bool, error) {
	v, err := r.u32()
	return v != 0, err
}

// EncodeLoadRequest serializes a load-summary request.
func EncodeLoadRequest(req *LoadRequest) []byte {
	var w buffer
	encodeBool(&w, req.Reset)
	return w.b
}

// DecodeLoadRequest parses a load-summary request.
func DecodeLoadRequest(b []byte) (*LoadRequest, error) {
	r := reader{b: b}
	reset, err := decodeBool(&r)
	if err != nil {
		return nil, err
	}
	return &LoadRequest{Reset: reset}, nil
}

// EncodeLoadSummary serializes a load summary in deterministic key
// order.
func EncodeLoadSummary(s *sharding.LoadSummary) []byte {
	var w buffer
	keys := s.Keys()
	w.u32(uint32(len(keys)))
	for _, k := range keys {
		l := s.Tables[k]
		w.u32(uint32(k.TableID))
		w.u32(uint32(k.PartIndex))
		w.u64(uint64(l.Lookups))
		w.u64(uint64(l.ServiceTime))
		w.u64(uint64(l.Calls))
	}
	return w.b
}

// DecodeLoadSummary parses a load summary.
func DecodeLoadSummary(b []byte) (*sharding.LoadSummary, error) {
	r := reader{b: b}
	n, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := sharding.NewLoadSummary()
	for i := uint32(0); i < n; i++ {
		var tid, part uint32
		var lookups, svc, calls uint64
		if tid, err = r.u32(); err != nil {
			return nil, err
		}
		if part, err = r.u32(); err != nil {
			return nil, err
		}
		if lookups, err = r.u64(); err != nil {
			return nil, err
		}
		if svc, err = r.u64(); err != nil {
			return nil, err
		}
		if calls, err = r.u64(); err != nil {
			return nil, err
		}
		out.Add(sharding.TableLoadKey{TableID: int(tid), PartIndex: int(part)}, sharding.TableLoad{
			Lookups: int64(lookups), ServiceTime: time.Duration(svc), Calls: int64(calls),
		})
	}
	return out, nil
}

// EncodeMigrateForward serializes a forward-installation request.
func EncodeMigrateForward(m *MigrateForward) []byte {
	var w buffer
	w.u32(uint32(m.TableID))
	w.u32(uint32(m.PartIndex))
	w.str(m.Service)
	w.str(m.Addr)
	encodeBool(&w, m.Release)
	return w.b
}

// DecodeMigrateForward parses a forward-installation request.
func DecodeMigrateForward(b []byte) (*MigrateForward, error) {
	r := reader{b: b}
	tid, err := r.u32()
	if err != nil {
		return nil, err
	}
	part, err := r.u32()
	if err != nil {
		return nil, err
	}
	out := &MigrateForward{TableID: int32(tid), PartIndex: int32(part)}
	if out.Service, err = r.str(); err != nil {
		return nil, err
	}
	if out.Addr, err = r.str(); err != nil {
		return nil, err
	}
	if out.Release, err = decodeBool(&r); err != nil {
		return nil, err
	}
	return out, nil
}

// EncodeEpochResponse serializes an epoch acknowledgement.
func EncodeEpochResponse(m *EpochResponse) []byte {
	var w buffer
	w.u64(m.Epoch)
	return w.b
}

// DecodeEpochResponse parses an epoch acknowledgement.
func DecodeEpochResponse(b []byte) (*EpochResponse, error) {
	r := reader{b: b}
	e, err := r.u64()
	if err != nil {
		return nil, err
	}
	return &EpochResponse{Epoch: e}, nil
}
