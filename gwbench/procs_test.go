package main

import (
	"os"
	"testing"
)

func TestParseStatCPU(t *testing.T) {
	// A command name with spaces and a ')' must not shift the fields.
	stat := "4242 (ppr serve) x) S 1 4242 4242 0 -1 4194560 1234 0 0 0 250 75 0 0 20 0 9 0 100 2000000 3000 18446744073709551615\n"
	got, err := parseStatCPU([]byte(stat))
	if err != nil {
		t.Fatal(err)
	}
	if got != 325 {
		t.Errorf("utime+stime = %d, want 325", got)
	}
	for _, bad := range []string{"", "4242 (x) S 1 2", "4242 (x) S 1 2 3 4 5 6 7 8 9 ten 11"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) did not fail", bad)
		}
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\tpprserve\nVmPeak:\t  900000 kB\nVmHWM:\t   41652 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseVmHWM([]byte(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 41652 {
		t.Errorf("VmHWM = %d kB, want 41652", got)
	}
	for _, bad := range []string{"VmRSS:\t 1 kB\n", "VmHWM:\t 12 MB\n", "VmHWM:\n"} {
		if _, err := parseVmHWM([]byte(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) did not fail", bad)
		}
	}
}

func TestOwnProcess(t *testing.T) {
	buf := make([]byte, 0)
	for i := 0; i < 2e6; i++ { // burn a little CPU so the tick count moves
		buf = append(buf[:0], byte(i))
	}
	if cpu, err := procCPU(os.Getpid()); err != nil || cpu <= 0 {
		t.Errorf("procCPU = %v, %v", cpu, err)
	}
	if rss, err := procPeakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("procPeakRSS = %v, %v", rss, err)
	}
}
