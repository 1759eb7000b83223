package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"edgepulse/internal/api"
	v1 "edgepulse/internal/api/v1"
	"edgepulse/internal/project"
	"edgepulse/internal/store"
)

// segmentChunk is the apply granularity for shipped segment bytes.
const segmentChunk = 256 << 10

// Follower replicates a primary worker into a read-only standby
// registry: registry metadata and per-project impulse/model files via
// the meta bundle, dataset stores via segment shipping plus journal
// tailing, with a manifest-copy bootstrap whenever the journal cursor
// has fallen behind the primary's snapshot horizon.
type Follower struct {
	reg      *project.Registry
	primary  string
	token    string
	hc       *http.Client
	interval time.Duration
	log      *slog.Logger

	// round serializes sync rounds: an explicit SyncOnce must not
	// interleave with the background loop's, or both ship the same
	// segment bytes and apply the same journal frames.
	round sync.Mutex

	mu       sync.Mutex
	lastErr  string
	rounds   int64
	applied  uint64
	shipped  int64
	bootstps int64

	stop chan struct{}
	done chan struct{}
}

// FollowerConfig configures the sync loop.
type FollowerConfig struct {
	// PrimaryURL is the worker to replicate from.
	PrimaryURL string
	// Token is sent as X-Cluster-Token on replication calls.
	Token string
	// Interval between sync rounds; default 500ms.
	Interval time.Duration
	// Logger; default slog.Default().
	Logger *slog.Logger
	// Client overrides the HTTP client.
	Client *http.Client
}

// NewFollower builds a sync loop feeding a replica registry (opened
// with project.OpenReplica).
func NewFollower(reg *project.Registry, cfg FollowerConfig) (*Follower, error) {
	if !reg.Replica() {
		return nil, fmt.Errorf("cluster: follower requires a replica registry")
	}
	if cfg.PrimaryURL == "" {
		return nil, fmt.Errorf("cluster: follower requires a primary URL")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	hc := cfg.Client
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	logger := cfg.Logger
	if logger == nil {
		logger = slog.Default()
	}
	return &Follower{
		reg:      reg,
		primary:  cfg.PrimaryURL,
		token:    cfg.Token,
		hc:       hc,
		interval: cfg.Interval,
		log:      logger,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Start runs one synchronous sync round, then keeps syncing in the
// background until Stop.
func (f *Follower) Start() {
	f.SyncOnce(context.Background())
	go func() {
		defer close(f.done)
		t := time.NewTicker(f.interval)
		defer t.Stop()
		for {
			select {
			case <-f.stop:
				return
			case <-t.C:
				f.SyncOnce(context.Background())
			}
		}
	}()
}

// Stop halts the loop.
func (f *Follower) Stop() {
	close(f.stop)
	<-f.done
}

// LastError returns the most recent round's failure ("" when clean).
func (f *Follower) LastError() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lastErr
}

// SyncOnce performs one full replication round: meta bundle first (so
// new projects exist locally before their datasets ship), then every
// project's segments and journal. Per-project failures are recorded
// and skipped; the round continues.
func (f *Follower) SyncOnce(ctx context.Context) error {
	f.round.Lock()
	defer f.round.Unlock()
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
		f.log.Warn("follower sync", "err", err)
	}

	if err := f.syncMeta(ctx); err != nil {
		fail(fmt.Errorf("meta: %w", err))
	} else {
		for _, p := range f.reg.Projects() {
			if err := f.syncProject(ctx, p); err != nil {
				fail(fmt.Errorf("project %d: %w", p.ID, err))
			}
		}
	}

	f.mu.Lock()
	f.rounds++
	if firstErr != nil {
		f.lastErr = firstErr.Error()
	} else {
		f.lastErr = ""
	}
	f.mu.Unlock()
	return firstErr
}

// syncMeta pulls the registry blob and per-project impulse/model files.
func (f *Follower) syncMeta(ctx context.Context) error {
	var meta v1.ClusterMetaResponse
	if err := f.getJSON(ctx, "/cluster/replication/meta", &meta); err != nil {
		return err
	}
	bundle := project.MetaBundle{Registry: meta.Registry}
	for _, pm := range meta.Projects {
		bundle.Projects = append(bundle.Projects, project.ProjectMeta{
			ID: pm.ID, Impulse: pm.Impulse, Model: pm.Model, QModel: pm.QModel,
		})
	}
	return f.reg.ApplyMeta(bundle)
}

// syncProject ships missing committed segment bytes, then tails the
// journal. A 409 from the journal endpoint means the cursor is behind
// the primary's snapshot horizon: bootstrap from the manifest.
func (f *Follower) syncProject(ctx context.Context, p *project.Project) error {
	st := p.Store()
	if st == nil {
		return fmt.Errorf("no store")
	}
	var remote v1.ReplicationStateResponse
	if err := f.getJSON(ctx, f.projPath(p.ID, "state"), &remote); err != nil {
		return err
	}
	cursor := st.Committed()
	if cursor > remote.Version {
		// The primary lost history (wiped and re-created); start over.
		return f.bootstrap(ctx, p.ID)
	}
	if cursor == remote.Version && !f.segmentsBehind(st, remote) {
		return nil
	}

	if err := f.shipSegments(ctx, p.ID, st, remote); err != nil {
		return err
	}

	var journal v1.ReplicationJournalResponse
	err := f.getJSON(ctx, f.projPath(p.ID, "journal")+
		"?since="+strconv.FormatUint(cursor, 10)+
		"&upto="+strconv.FormatUint(remote.Version, 10), &journal)
	if isConflict(err) {
		f.log.Info("follower behind snapshot horizon, bootstrapping", "project", p.ID)
		return f.bootstrap(ctx, p.ID)
	}
	if err != nil {
		return err
	}
	if len(journal.Frames) == 0 {
		return nil
	}
	applied, err := st.ApplyJournalFrames(journal.Frames)
	if err != nil {
		return fmt.Errorf("applying journal: %w", err)
	}
	f.mu.Lock()
	f.applied = applied
	f.mu.Unlock()
	return p.RefreshDataset()
}

func (f *Follower) segmentsBehind(st *store.Store, remote v1.ReplicationStateResponse) bool {
	local, err := st.ReplicationState()
	if err != nil {
		return true
	}
	sizes := make(map[int]int64, len(local.Segments))
	for _, s := range local.Segments {
		sizes[s.Index] = s.Size
	}
	for _, s := range remote.Segments {
		if sizes[s.Index] < s.Size {
			return true
		}
	}
	return false
}

// shipSegments pulls each remote segment's committed bytes past the
// local size and applies them in order.
func (f *Follower) shipSegments(ctx context.Context, id int, st *store.Store, remote v1.ReplicationStateResponse) error {
	local, err := st.ReplicationState()
	if err != nil {
		return err
	}
	sizes := make(map[int]int64, len(local.Segments))
	for _, s := range local.Segments {
		sizes[s.Index] = s.Size
	}
	for _, seg := range remote.Segments {
		from := sizes[seg.Index]
		if from >= seg.Size {
			continue
		}
		body, err := f.getStream(ctx, f.projPath(id, "segments/"+strconv.Itoa(seg.Index))+
			"?from="+strconv.FormatInt(from, 10))
		if err != nil {
			return err
		}
		err = applyStream(body, seg.Size-from, func(b []byte) error {
			if aerr := st.ApplySegmentChunk(seg.Index, from, b); aerr != nil {
				return aerr
			}
			from += int64(len(b))
			return nil
		})
		body.Close()
		if err != nil {
			return fmt.Errorf("segment %d: %w", seg.Index, err)
		}
		f.mu.Lock()
		f.shipped += seg.Size - sizes[seg.Index]
		f.mu.Unlock()
	}
	return nil
}

// bootstrap rebuilds the project's replica store from scratch: fetch
// the primary's manifest, reset the local dataset directory, lay the
// manifest down, copy every segment in full, and reopen. The next sync
// round tails the journal from the manifest's version.
func (f *Follower) bootstrap(ctx context.Context, id int) error {
	var manifest v1.ReplicationManifestResponse
	if err := f.getJSON(ctx, f.projPath(id, "manifest"), &manifest); err != nil {
		return err
	}
	// State fetched after the manifest, so its segment list covers every
	// byte the manifest references (segments only grow).
	var remote v1.ReplicationStateResponse
	if err := f.getJSON(ctx, f.projPath(id, "state"), &remote); err != nil {
		return err
	}
	if err := f.reg.ResetReplicaDataset(id); err != nil {
		return err
	}
	dir := f.reg.ReplicaDatasetDir(id)
	if err := store.PrepareBootstrap(dir, manifest.Manifest); err != nil {
		return err
	}
	for _, seg := range remote.Segments {
		body, err := f.getStream(ctx, f.projPath(id, "segments/"+strconv.Itoa(seg.Index))+"?from=0")
		if err != nil {
			return err
		}
		err = copyToFile(store.SegmentPath(dir, seg.Index), body)
		body.Close()
		if err != nil {
			return fmt.Errorf("bootstrap segment %d: %w", seg.Index, err)
		}
	}
	f.mu.Lock()
	f.bootstps++
	f.mu.Unlock()
	return f.reg.ReopenReplicaDataset(id)
}

// --- transport helpers ---

func (f *Follower) projPath(id int, leaf string) string {
	return "/cluster/replication/projects/" + strconv.Itoa(id) + "/" + leaf
}

// apiError carries a non-2xx replication response.
type apiError struct {
	status int
	code   string
}

func (e *apiError) Error() string {
	return fmt.Sprintf("replication endpoint: status %d (%s)", e.status, e.code)
}

func isConflict(err error) bool {
	ae, ok := err.(*apiError)
	return ok && ae.status == http.StatusConflict
}

func (f *Follower) getJSON(ctx context.Context, path string, out any) error {
	body, err := f.getStream(ctx, path)
	if err != nil {
		return err
	}
	defer body.Close()
	blob, err := io.ReadAll(io.LimitReader(body, 64<<20))
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, out)
}

func (f *Follower) getStream(ctx context.Context, path string) (io.ReadCloser, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, f.primary+v1.Prefix+path, nil)
	if err != nil {
		return nil, err
	}
	if f.token != "" {
		req.Header.Set(api.ClusterTokenHeader, f.token)
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		defer resp.Body.Close()
		var envelope v1.ErrorResponse
		blob, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		json.Unmarshal(blob, &envelope)
		return nil, &apiError{status: resp.StatusCode, code: envelope.Error.Code}
	}
	return resp.Body, nil
}

// applyStream feeds up to want bytes from r to apply in bounded chunks.
func applyStream(r io.Reader, want int64, apply func([]byte) error) error {
	buf := make([]byte, segmentChunk)
	var got int64
	for got < want {
		n := int64(len(buf))
		if want-got < n {
			n = want - got
		}
		nr, err := io.ReadFull(r, buf[:n])
		if nr > 0 {
			if aerr := apply(buf[:nr]); aerr != nil {
				return aerr
			}
			got += int64(nr)
		}
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			// The primary served fewer bytes than the state promised —
			// stale state snapshot; the next round retries.
			return nil
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func copyToFile(path string, r io.Reader) error {
	fh, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := io.Copy(fh, r); err != nil {
		fh.Close()
		return err
	}
	if err := fh.Sync(); err != nil {
		fh.Close()
		return err
	}
	return fh.Close()
}
