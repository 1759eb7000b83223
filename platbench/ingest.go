package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/data"
	"edgepulse/internal/ingest"
	"edgepulse/internal/project"
)

// closedOpBase offsets closed-loop upload indexes past every open-loop
// one, so no two uploads of a run carry the same content.
const closedOpBase = 1_000_000

// uploadDoc is upload op's seeded acquisition samples: a pool window
// with its first sample nudged by the op index, which makes the
// content unique per seed and op (the dataset answers 409 to repeats).
func (b *bench) uploadDoc(op int) (samples []float32, label string) {
	w, _ := b.pick(phaseOpen, op)
	samples = append([]float32(nil), b.pool[w]...)
	samples[0] += float32(op+1) * 1e-6
	return samples, b.labels[w]
}

// uploadOp signs and uploads one unique 1 s acquisition doc into the
// serving project's durable store; only a 201 with a sample ID counts.
// When trace is set in a traced run, it then replays verification and
// the store append against the benchmark's own durable project.
func (b *bench) uploadOp(ctx context.Context, lat *latencies, op int, due time.Time, trace bool, own *data.Dataset) bool {
	samples, label := b.uploadDoc(op)
	tr := b.tr
	if !trace {
		tr = nil
	}
	req := tr.req()
	root := tr.start(req, 0, "op")
	enc := tr.start(req, root.id(), "client.encode")
	doc, err := signDoc(b.p.project.HMACKey, samples, stampBase+closedOpBase*2+int64(op))
	tr.finish(enc)
	name := fmt.Sprintf("u%d", op)
	q := url.Values{"label": {label}, "name": {name}, "format": {"acquisition"}}
	wire := tr.start(req, root.id(), "api.residual")
	var status int
	var raw []byte
	if err == nil {
		status, raw, err = b.post(ctx, fmt.Sprintf("/projects/%d/data?%s", b.p.project.ID, q.Encode()), "application/json", doc)
	}
	tr.finish(wire)
	dec := tr.start(req, root.id(), "client.decode")
	var resp v1.UploadResponse
	if err == nil && status == http.StatusCreated {
		err = json.Unmarshal(raw, &resp)
	}
	tr.finish(dec)
	tr.finish(root)
	if err != nil || status != http.StatusCreated || resp.SampleID == "" {
		lat.fail()
		b.mismatch("upload %d: status %d, err %v", op, status, err)
		return false
	}
	lat.ok(time.Since(due))
	if tr == nil {
		return true
	}
	var payload ingest.Payload
	tr.replay(req, wire.id(), "api.decode", func() {
		payload, err = ingest.Verify(doc, b.p.project.HMACKey)
	})
	if err != nil {
		b.mismatch("upload replay verify: %v", err)
		return true
	}
	tr.replay(req, wire.id(), "core", func() {
		_, err = own.Add(&data.Sample{Name: name, Label: label, Signal: payload.Signal(), Metadata: map[string]string{
			"device_name": payload.DeviceName, "device_type": payload.DeviceType,
		}})
	})
	if err != nil {
		b.mismatch("upload replay store: %v", err)
	}
	tr.replay(req, wire.id(), "api.encode", func() {
		json.NewEncoder(io.Discard).Encode(v1.UploadResponse{Success: true, SampleID: resp.SampleID})
	})
	return true
}

// ownDataset opens a durable project the benchmark owns in dir, the
// target of traced store-append replays.
func ownDataset(dir string) (*project.Registry, *data.Dataset, error) {
	reg, err := project.Open(dir)
	if err != nil {
		return nil, nil, err
	}
	u, err := reg.CreateUser("platbench")
	if err == nil {
		var p *project.Project
		if p, err = reg.CreateProject("replay", u.ID); err == nil {
			return reg, p.Dataset(), nil
		}
	}
	reg.Close()
	return nil, nil, err
}
