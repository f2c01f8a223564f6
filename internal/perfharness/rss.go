package perfharness

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
)

// peakRSSBytes samples the process's high-water resident set from
// /proc/self/status (VmHWM). Returns 0 where procfs is absent — the
// harness then simply omits the peak_rss_bytes metric rather than
// gating on a lie.
func peakRSSBytes() int64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		line := sc.Text()
		if len(line) < 6 || line[:6] != "VmHWM:" {
			continue
		}
		fields := bytes.Fields([]byte(line[6:]))
		if len(fields) < 1 {
			return 0
		}
		kb, err := strconv.ParseInt(string(fields[0]), 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// clearRefsPath is the procfs file whose "5" write resets VmHWM.
var clearRefsPath = "/proc/self/clear_refs"

// resetPeakRSS clears the VmHWM high-water mark (write "5" to
// /proc/self/clear_refs) so each scenario's peak is its own, not the
// max over everything the process ran before it, and reports whether
// the reset took. On kernels or sandboxes that refuse the write, peaks
// stay monotone across scenarios — still a valid ceiling gate, just a
// looser one — and the trend record is labeled so
// (Record.PeakRSSProcessWide).
func resetPeakRSS() bool {
	f, err := os.OpenFile(clearRefsPath, os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte("5"))
	cerr := f.Close()
	return werr == nil && cerr == nil
}
