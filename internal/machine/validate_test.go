package machine

import (
	"errors"
	"testing"

	"swex/internal/proto"
)

func TestConfigValidate(t *testing.T) {
	base := func(mut func(*Config)) Config {
		cfg := DefaultConfig(4, proto.FullMap())
		mut(&cfg)
		return cfg
	}
	cases := []struct {
		name string
		cfg  Config
		want error // nil = valid; matched with errors.Is
	}{
		{"default", base(func(*Config) {}), nil},
		{"zero-nodes", base(func(c *Config) { c.Nodes = 0 }), ErrNodes},
		{"negative-nodes", base(func(c *Config) { c.Nodes = -4 }), ErrNodes},
		{"negative-loseinv", base(func(c *Config) { c.LoseInv = -1 }), ErrLoseInv},
		{"four-threads", base(func(c *Config) { c.ThreadsPerNode = 4 }), nil},
		{"five-threads", base(func(c *Config) { c.ThreadsPerNode = 5 }), ErrThreads},
		{"negative-threads", base(func(c *Config) { c.ThreadsPerNode = -1 }), ErrThreads},
		{"huge-threads", base(func(c *Config) { c.ThreadsPerNode = 1 << 30 }), ErrThreads},
		{"two-way", base(func(c *Config) { c.CacheWays = 2 }), nil},
		{"small-four-way", base(func(c *Config) { c.CacheLines, c.CacheWays = 8, 4 }), nil},
		{"negative-victim", base(func(c *Config) { c.VictimLines = -2 }), ErrCacheGeometry},
		{"negative-lines", base(func(c *Config) { c.CacheLines = -8 }), ErrCacheGeometry},
		{"negative-ways", base(func(c *Config) { c.CacheWays = -1 }), ErrCacheGeometry},
		{"three-ways-default-lines", base(func(c *Config) { c.CacheWays = 3 }), ErrCacheGeometry},
		{"five-ways-default-lines", base(func(c *Config) { c.CacheWays = 5 }), ErrCacheGeometry},
		{"ways-not-dividing-lines", base(func(c *Config) { c.CacheLines, c.CacheWays = 12, 8 }), ErrCacheGeometry},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.want == nil {
				if err != nil {
					t.Fatalf("Validate() = %v, want nil", err)
				}
				return
			}
			if !errors.Is(err, tc.want) {
				t.Fatalf("Validate() = %v, want errors.Is(%v)", err, tc.want)
			}
		})
	}
}

func TestConfigThreads(t *testing.T) {
	for tpn, want := range []int{1, 1, 2, 3, 4} {
		if got := (Config{ThreadsPerNode: tpn}).Threads(); got != want {
			t.Errorf("ThreadsPerNode %d: Threads() = %d, want %d", tpn, got, want)
		}
	}
}

func TestValidateRejectsBadSpec(t *testing.T) {
	cfg := DefaultConfig(4, proto.Spec{Name: "bad", SoftwareOnly: true, HWPointers: 3})
	if err := cfg.Validate(); !errors.Is(err, proto.ErrSpec) {
		t.Fatalf("Validate() = %v, want errors.Is(ErrSpec)", err)
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	cfg := DefaultConfig(4, proto.FullMap())
	cfg.CacheLines, cfg.CacheWays = 12, 8
	if _, err := New(cfg); !errors.Is(err, ErrCacheGeometry) {
		t.Fatalf("New() = %v, want errors.Is(ErrCacheGeometry)", err)
	}
}
