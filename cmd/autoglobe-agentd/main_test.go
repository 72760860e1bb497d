package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"autoglobe/internal/wire"
)

// parseArgs binds a fresh flag set the way main does and parses args.
func parseArgs(t *testing.T, args []string) *options {
	t.Helper()
	fs := flag.NewFlagSet("autoglobe-agentd", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := bindFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("parse %q: %v", args, err)
	}
	return o
}

// TestValidateFlagsAccepts: the invocations the README and the verify
// recipe document all pass validation, with the codec resolved.
func TestValidateFlagsAccepts(t *testing.T) {
	cases := []struct {
		args  string
		codec wire.Codec
	}{
		{"-mode demo -landscape paper.xml -hours 24", wire.CodecJSON},
		{"-mode coordinator -landscape paper.xml -listen 127.0.0.1:7700", wire.CodecJSON},
		{"-mode agent -host Blade1 -coordinator http://127.0.0.1:7700 -load 0.4", wire.CodecJSON},
		{"-mode coordinator -landscape paper.xml -listen 127.0.0.1:7700 -codec binary -ingest-shards 16 -dispatch-workers 8 -selection-workers 8", wire.CodecBinary},
		{"-mode agent -host Blade1 -coordinator http://127.0.0.1:7700 -load 0.4 -codec binary", wire.CodecBinary},
		{"-mode coordinator -landscape paper.xml -listen 127.0.0.1:7700 -journal /var/lib/autoglobe/journal", wire.CodecJSON},
		{"-mode coordinator -landscape paper.xml -listen 127.0.0.1:7700 -archive-dir /var/lib/autoglobe/archive -forecast 45", wire.CodecJSON},
		{"-mode demo -landscape paper.xml -hours 72 -archive-dir /tmp/archive -forecast 45", wire.CodecJSON},
		{"-mode demo -landscape paper.xml -hours 24 -chaos-seed 11", wire.CodecJSON},
		{"-mode demo -landscape paper.xml -hours 24 -standbys 2 -chaos-seed 11", wire.CodecJSON},
		{"-mode standby -standby-of http://127.0.0.1:7700 -landscape paper.xml -listen 127.0.0.1:7701 -journal /var/lib/autoglobe/journal", wire.CodecJSON},
		{"-mode coordinator -landscape paper.xml -rules-dir /etc/autoglobe/rules -shadow-rules-dir /etc/autoglobe/candidate -shadow-label conservative-scalein@v2", wire.CodecJSON},
		{"-mode demo -landscape paper.xml -obs 127.0.0.1:7701", wire.CodecJSON},
		{"-mode coordinator -landscape paper.xml -pprof", wire.CodecJSON},
		{"-mode demo -landscape /tmp/paper.xml -hours 24 -codec binary -journal /tmp/j", wire.CodecBinary},
		{"-mode demo -landscape /tmp/paper.xml -hours 24 -codec binary -journal /tmp/j -chaos-seed 11", wire.CodecBinary},
		{"-mode coordinator -landscape /tmp/paper.xml -listen 127.0.0.1:7733 -interval 300ms -journal /tmp/j", wire.CodecJSON},
		{"-mode agent -host Blade1 -coordinator http://127.0.0.1:7733 -load 0.95 -interval 300ms", wire.CodecJSON},
	}
	for _, tc := range cases {
		o := parseArgs(t, strings.Fields(tc.args))
		if err := validateFlags(o); err != nil {
			t.Errorf("%s: rejected: %v", tc.args, err)
			continue
		}
		if o.codec != tc.codec {
			t.Errorf("%s: codec %v, want %v", tc.args, o.codec, tc.codec)
		}
	}
}

// TestValidateFlagsRejects: every rejection validateFlags can return,
// one invocation each, identified by its message.
func TestValidateFlagsRejects(t *testing.T) {
	cases := []struct {
		args string
		want string
	}{
		{"-mode coordinator -landscape l.xml -chaos-seed 11", "-chaos-seed only applies to -mode demo"},
		{"-mode coordinator -landscape l.xml -obs 127.0.0.1:7701", "-obs only applies to -mode demo"},
		{"-mode agent -host b1 -obs 127.0.0.1:7701", "-obs only applies to -mode demo"},
		{"-mode agent -host b1 -journal /tmp/j", "-journal only applies to -mode coordinator, standby or demo"},
		{"-mode coordinator -landscape l.xml -standby-of http://127.0.0.1:7700", "-standby-of only applies to -mode standby"},
		{"-mode coordinator -landscape l.xml -standbys 2", "-standbys only applies to -mode demo"},
		{"-mode demo -landscape l.xml -standbys -1", "-standbys -1 must be >= 0"},
		{"-mode demo -landscape l.xml -lease-ttl 0", "-lease-ttl 0 must be positive"},
		{"-mode agent -host b1 -archive-dir /tmp/a", "-archive-dir only applies to -mode coordinator or demo"},
		{"-mode agent -host b1 -rules-dir /tmp/r", "-rules-dir only applies to -mode coordinator or demo"},
		{"-mode agent -host b1 -shadow-rules-dir /tmp/s", "-shadow-rules-dir only applies to -mode coordinator or demo"},
		{"-mode demo -landscape l.xml -forecast -1", "-forecast -1 must be >= 0"},
		{"-mode agent -host b1 -forecast 45", "-forecast only applies to -mode coordinator or demo"},
		{"-mode demo -landscape l.xml -codec xml", "-codec: "},
		{"-mode demo -landscape l.xml -ingest-shards -1", "-ingest-shards -1 must be >= 0"},
		{"-mode agent -host b1 -ingest-shards 4", "-ingest-shards only applies to -mode coordinator or demo"},
		{"-mode demo -landscape l.xml -dispatch-workers -1", "-dispatch-workers -1 must be >= 0"},
		{"-mode agent -host b1 -dispatch-workers 4", "-dispatch-workers only applies to -mode coordinator or demo"},
		{"-mode demo -landscape l.xml -selection-workers -1", "-selection-workers -1 must be >= 0"},
		{"-mode agent -host b1 -selection-workers 4", "-selection-workers only applies to -mode coordinator or demo"},
		{"-mode coordinator", "-mode coordinator needs -landscape"},
		{"-mode demo", "-mode demo needs -landscape"},
		{"-mode standby -standby-of http://127.0.0.1:7700 -journal /tmp/j", "-mode standby needs -landscape"},
		{"-mode standby -landscape l.xml -journal /tmp/j", "-mode standby needs -standby-of"},
		{"-mode standby -landscape l.xml -standby-of http://127.0.0.1:7700", "-mode standby needs -journal"},
		{"-mode agent", "-mode agent needs -host"},
		{"-mode console", `unknown -mode "console"`},
		{"-mode agent -host b1 -load 1.5", "-load 1.5 outside [0, 1]"},
		{"-mode agent -host b1 -load -0.1", "-load -0.1 outside [0, 1]"},
		{"-mode agent -host b1 -interval 0s", "-interval 0s must be positive"},
		{"-mode demo -landscape l.xml -hours 0", "-hours 0 must be positive"},
	}
	for _, tc := range cases {
		err := validateFlags(parseArgs(t, strings.Fields(tc.args)))
		if err == nil {
			t.Errorf("%s: accepted, want %q", tc.args, tc.want)
			continue
		}
		if !strings.HasPrefix(err.Error(), tc.want) {
			t.Errorf("%s: error %q, want prefix %q", tc.args, err, tc.want)
		}
	}
}
