package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
)

// rssProbe samples the process's peak resident set through procfs without
// allocating, so sampling it around every pass adds nothing to
// allocs_per_op.
type rssProbe struct {
	clearRefs, status *os.File
	buf               []byte
}

var (
	// resetHWM, written to /proc/self/clear_refs, restarts the kernel's
	// peak-resident-set record (VmHWM) at the current resident set.
	resetHWM = []byte("5")
	hwmField = []byte("VmHWM:")
)

func openRSSProbe() (*rssProbe, error) {
	clearRefs, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return nil, err
	}
	status, err := os.Open("/proc/self/status")
	if err != nil {
		clearRefs.Close()
		return nil, err
	}
	return &rssProbe{clearRefs: clearRefs, status: status, buf: make([]byte, 16<<10)}, nil
}

func (r *rssProbe) close() {
	r.clearRefs.Close()
	r.status.Close()
}

// reset restarts the peak record at the current resident set.
func (r *rssProbe) reset() error {
	if _, err := r.clearRefs.Write(resetHWM); err != nil {
		return fmt.Errorf("reset VmHWM: %w", err)
	}
	return nil
}

// peak returns the peak resident set (VmHWM) since the last reset, in MiB.
func (r *rssProbe) peak() (float64, error) {
	n, err := r.status.ReadAt(r.buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	i := bytes.Index(r.buf[:n], hwmField)
	if i < 0 {
		return 0, errors.New("no VmHWM in /proc/self/status")
	}
	kb, digits := 0, 0
	for _, c := range r.buf[i+len(hwmField) : n] {
		if c >= '0' && c <= '9' {
			kb = kb*10 + int(c-'0')
			digits++
		} else if digits > 0 || c == '\n' {
			break
		}
	}
	if digits == 0 {
		return 0, errors.New("VmHWM has no value")
	}
	return float64(kb) / 1024, nil
}
