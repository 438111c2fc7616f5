package main

import (
	"bytes"
	"encoding/json"
	"fmt"

	"provmin/internal/db"
	"provmin/internal/eval"
	"provmin/internal/minimize"
	"provmin/internal/persist"
	"provmin/internal/query"
)

// oracle recomputes answers in process. It keeps a mirror of every
// instance, built from the same seed facts plus every acknowledged ingest
// in order, and evaluates MinProv's p-minimal query over it: by Theorem
// 4.6 that is the core provenance /core must return.
type oracle struct {
	mirrors []*db.Instance
	minimal map[string]*query.UCQ
}

func newOracle(texts []string) (*oracle, error) {
	o := &oracle{minimal: map[string]*query.UCQ{}}
	for i, t := range texts {
		d, err := db.ParseInstance(t)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		o.mirrors = append(o.mirrors, d)
	}
	return o, nil
}

// ingest applies an acknowledged ingest to the mirror. Sink facts have no
// mirror: nothing reads the sink.
func (o *oracle) ingest(r *request) error {
	if r.inst < 0 {
		return nil
	}
	for _, f := range r.facts {
		if err := persist.ApplyFact(o.mirrors[r.inst], f); err != nil {
			return fmt.Errorf("mirror of %s: %w", instanceID(r.inst), err)
		}
	}
	return nil
}

// expect returns the tuples a read must answer, encoded as the server
// encodes them: /core evaluates MinProv(u), /query evaluates u itself.
func (o *oracle) expect(k kind, inst int, text string) ([]byte, error) {
	u, err := query.ParseUnion(text)
	if err != nil {
		return nil, err
	}
	if k == kindCore {
		m, ok := o.minimal[text]
		if !ok {
			m = minimize.MinProv(u)
			o.minimal[text] = m
		}
		u = m
	}
	res, err := eval.EvalUCQ(u, o.mirrors[inst])
	if err != nil {
		return nil, err
	}
	return encodeTuples(res)
}

// tupleOut is one answer tuple on the wire, as the server writes it.
type tupleOut struct {
	Tuple      []string `json:"tuple"`
	Provenance string   `json:"provenance"`
}

func encodeTuples(res *eval.Result) ([]byte, error) {
	out := make([]tupleOut, 0, res.Len())
	for _, t := range res.Tuples() {
		out = append(out, tupleOut{Tuple: t.Tuple, Provenance: t.Prov.String()})
	}
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(out); err != nil {
		return nil, err
	}
	return bytes.TrimSuffix(b.Bytes(), []byte("\n")), nil
}

// tuplesOf returns the raw "tuples" member of a /core or /query response.
func tuplesOf(body []byte) ([]byte, error) {
	var r struct {
		Tuples json.RawMessage `json:"tuples"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if r.Tuples == nil {
		return nil, fmt.Errorf("response has no tuples: %.200s", body)
	}
	return r.Tuples, nil
}

// check compares a read response's tuples with the oracle's, byte for
// byte.
func (o *oracle) check(r *request, body []byte) error {
	got, err := tuplesOf(body)
	if err != nil {
		return err
	}
	want, err := o.expect(r.kind, r.inst, r.text)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s on %s %q: got %.200s, want %.200s", r.path, instanceID(r.inst), r.text, got, want)
	}
	return nil
}
