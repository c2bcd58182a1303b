package main

import (
	"fmt"
	"hash/fnv"
	"reflect"
	"sort"

	"repro/internal/exec"
	"repro/internal/logical"
	"repro/internal/obs/eventlog"
)

// expected is the reference answer to one script.
type expected struct {
	// outputs digests every OUTPUT table in the format of the service's
	// event log: path, row count, FNV-64a over Table.Canonical.
	outputs []eventlog.Output
	// tables keeps the ORDER BY outputs for Table.Equal.
	tables map[string]*exec.Table
	err    error
}

// check compares every sample with exec.Reference evaluated on a
// separately generated copy of the stream's inputs, and returns how
// many samples failed with a line per failure. Reference is the
// logical interpreter: no optimizer, cache or service. A sample fails
// on a Submit error, on any output whose digest or row count differs
// from the reference (equal digests are Table.Equal up to a 64-bit
// hash collision), on an ORDER BY output that is not Table.Equal to
// the reference, or on one that is out of order.
func check(s *stream, samples []sample) (int, []string) {
	fs, cat := s.load()
	refs := map[string]*expected{}
	reference := func(req request) *expected {
		if e, ok := refs[req.script]; ok {
			return e
		}
		e := &expected{}
		refs[req.script] = e
		m, err := logical.BuildSource(req.script, cat)
		if err != nil {
			e.err = err
			return e
		}
		outs, err := exec.Reference(m, fs)
		if err != nil {
			e.err = err
			return e
		}
		e.outputs = digest(outs)
		for path := range req.order {
			if e.tables == nil {
				e.tables = map[string]*exec.Table{}
			}
			e.tables[path] = outs[path]
		}
		return e
	}

	failed := 0
	var msgs []string
	for _, sm := range samples {
		if msg := checkOne(sm, reference(sm.req)); msg != "" {
			failed++
			msgs = append(msgs, fmt.Sprintf("%s %s: %s", sm.tenant, sm.req.name, msg))
		}
	}
	return failed, msgs
}

// digest renders outputs as the service's event log records them,
// sorted by path, with a row count and an FNV-64a hash over each
// table's Canonical lines. It is the benchmark's own, not
// eventlog.DigestOutputs, so a change to the service's digest cannot
// change both sides of the comparison at once.
func digest(outputs map[string]*exec.Table) []eventlog.Output {
	out := make([]eventlog.Output, 0, len(outputs))
	for path, t := range outputs {
		lines := t.Canonical()
		h := fnv.New64a()
		for _, line := range lines {
			h.Write([]byte(line))
			h.Write([]byte{'\n'})
		}
		out = append(out, eventlog.Output{Path: path, Rows: len(lines), Digest: fmt.Sprintf("%016x", h.Sum64())})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// checkOne returns why sm disagrees with want, or "".
func checkOne(sm sample, want *expected) string {
	switch {
	case sm.err != nil:
		return "submit: " + sm.err.Error()
	case sm.event.Script != eventlog.ScriptID(sm.req.script):
		return "no service event for the request"
	case want.err != nil:
		return "reference: " + want.err.Error()
	case !reflect.DeepEqual(sm.event.Outputs, want.outputs):
		return fmt.Sprintf("outputs %v, reference %v", sm.event.Outputs, want.outputs)
	}
	for path, cols := range sm.req.order {
		got, ref := sm.ordered[path], want.tables[path]
		if got == nil || ref == nil || !got.Equal(ref) {
			return fmt.Sprintf("%s differs from the reference", path)
		}
		if !inOrder(got, cols) {
			return fmt.Sprintf("%s is not in ORDER BY %v order", path, cols)
		}
	}
	return ""
}

// inOrder reports whether t's rows are sorted ascending on cols. It is
// the one place the benchmark reads row storage: Table offers no
// ordered accessor, and Canonical sorts.
func inOrder(t *exec.Table, cols []string) bool {
	idx, ok := t.Schema.Indexes(cols)
	if !ok {
		return false
	}
	for i := 1; i < len(t.Rows); i++ {
		for _, k := range idx {
			c := t.Rows[i-1][k].Compare(t.Rows[i][k])
			if c < 0 {
				break
			}
			if c > 0 {
				return false
			}
		}
	}
	return true
}
