// Package eim implements the runner protocol for EIM artifacts (paper
// Sec. 4.6): on Linux-class targets a deployed model is "a compiled,
// native binary application that exposes the I/O interface for use by any
// number of programming languages". Here the runner serves newline-
// delimited JSON over any net.Listener (Unix socket in production, pipes
// in tests): hello for metadata, classify for inference.
package eim

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"sync"

	"edgepulse/internal/core"
)

// Request is one protocol message from the client.
type Request struct {
	// ID correlates responses to requests.
	ID int `json:"id"`
	// Hello requests model metadata when true.
	Hello bool `json:"hello,omitempty"`
	// Classify carries raw signal values to classify.
	Classify *ClassifyParams `json:"classify,omitempty"`
}

// ClassifyParams is the classify payload.
type ClassifyParams struct {
	// Features holds raw signal values (interleaved axes), one window.
	Features []float32 `json:"features"`
	// Quantized selects the int8 model when available.
	Quantized bool `json:"quantized,omitempty"`
}

// Response is one protocol reply.
type Response struct {
	ID      int            `json:"id"`
	Success bool           `json:"success"`
	Error   string         `json:"error,omitempty"`
	Info    *ModelInfo     `json:"info,omitempty"`
	Result  *ClassifyReply `json:"result,omitempty"`
}

// ModelInfo is the hello reply.
type ModelInfo struct {
	Name       string   `json:"name"`
	Classes    []string `json:"classes"`
	InputCount int      `json:"input_count"`
	Frequency  int      `json:"frequency"`
	HasAnomaly bool     `json:"has_anomaly"`
	Quantized  bool     `json:"quantized"`
}

// ClassifyReply is the classify reply.
type ClassifyReply struct {
	Classification map[string]float32 `json:"classification"`
	Label          string             `json:"label"`
	Anomaly        float64            `json:"anomaly"`
}

// Server hosts one impulse behind the protocol.
type Server struct {
	imp *core.Impulse

	mu     sync.Mutex
	closed bool
	ln     net.Listener
}

// NewServer wraps a runnable impulse.
func NewServer(imp *core.Impulse) (*Server, error) {
	if err := imp.Validate(); err != nil {
		return nil, err
	}
	if imp.Model == nil && imp.Anomaly == nil {
		return nil, fmt.Errorf("eim: impulse has no trained learn block")
	}
	return &Server{imp: imp}, nil
}

// Serve accepts connections until the listener closes. Each connection
// handles requests sequentially (the EIM binary is single-tenant).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		go s.handle(conn)
	}
}

// Close stops the server.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	if s.ln != nil {
		return s.ln.Close()
	}
	return nil
}

// handle serves one connection.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<24) // classify payloads can be large
	enc := json.NewEncoder(conn)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			enc.Encode(Response{Success: false, Error: "bad request: " + err.Error()})
			continue
		}
		enc.Encode(s.dispatch(req))
	}
}

// HandleRequest processes one request (exported for in-process use and
// tests without a socket).
func (s *Server) HandleRequest(req Request) Response {
	return s.dispatch(req)
}

func (s *Server) dispatch(req Request) Response {
	switch {
	case req.Hello:
		sig := s.imp.CanonicalSignal()
		return Response{ID: req.ID, Success: true, Info: &ModelInfo{
			Name:       s.imp.Name,
			Classes:    s.imp.Classes,
			InputCount: len(sig.Data),
			Frequency:  sig.Rate,
			HasAnomaly: s.imp.Anomaly != nil,
			Quantized:  s.imp.QModel != nil,
		}}
	case req.Classify != nil:
		return s.classify(req)
	default:
		return Response{ID: req.ID, Success: false, Error: "unknown method"}
	}
}

func (s *Server) classify(req Request) Response {
	inf, err := s.imp.Infer(s.imp.WindowSignal(req.Classify.Features), req.Classify.Quantized)
	if err != nil {
		return Response{ID: req.ID, Success: false, Error: err.Error()}
	}
	res := inf.Result(s.imp.Classes)
	return Response{ID: req.ID, Success: true, Result: &ClassifyReply{
		Classification: res.Scores,
		Label:          res.Label,
		Anomaly:        res.AnomalyScore,
	}}
}

// Client talks to a runner over a connection.
type Client struct {
	conn net.Conn
	sc   *bufio.Scanner
	enc  *json.Encoder
	mu   sync.Mutex
	next int
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	return &Client{conn: conn, sc: sc, enc: json.NewEncoder(conn)}
}

// Close closes the underlying connection.
func (c *Client) Close() error { return c.conn.Close() }

func (c *Client) roundTrip(req Request) (Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.next++
	req.ID = c.next
	if err := c.enc.Encode(req); err != nil {
		return Response{}, err
	}
	if !c.sc.Scan() {
		if err := c.sc.Err(); err != nil {
			return Response{}, err
		}
		return Response{}, fmt.Errorf("eim: connection closed")
	}
	var resp Response
	if err := json.Unmarshal(c.sc.Bytes(), &resp); err != nil {
		return Response{}, err
	}
	if !resp.Success {
		return resp, fmt.Errorf("eim: %s", resp.Error)
	}
	return resp, nil
}

// Hello fetches model metadata.
func (c *Client) Hello() (*ModelInfo, error) {
	resp, err := c.roundTrip(Request{Hello: true})
	if err != nil {
		return nil, err
	}
	if resp.Info == nil {
		return nil, fmt.Errorf("eim: hello returned no info")
	}
	return resp.Info, nil
}

// Classify runs one window of raw signal through the model.
func (c *Client) Classify(features []float32, quantized bool) (*ClassifyReply, error) {
	resp, err := c.roundTrip(Request{Classify: &ClassifyParams{Features: features, Quantized: quantized}})
	if err != nil {
		return nil, err
	}
	if resp.Result == nil {
		return nil, fmt.Errorf("eim: classify returned no result")
	}
	return resp.Result, nil
}
