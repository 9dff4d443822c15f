package core

import (
	"context"
	"testing"
)

func TestGroupMembersDrillDown(t *testing.T) {
	d, e := newTestWorld(t, 5, 30, 0.1, 5, 8, ModeApprox, -1)
	ctx := context.Background()
	ov, err := e.OverviewContext(ctx, 6, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov) == 0 {
		t.Fatal("no overview groups")
	}
	for _, gs := range ov {
		members, err := e.GroupMembersContext(ctx, gs.Group, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(members) != gs.Count {
			t.Fatalf("member count %d != overview count %d", len(members), gs.Count)
		}
		half := e.Base().HalfST(gs.Group.Length)
		for i, m := range members {
			if err := m.Ref.Validate(d); err != nil {
				t.Fatal(err)
			}
			if m.SeriesName != d.At(m.Ref.Series).Name {
				t.Fatalf("series name mismatch: %s", m.SeriesName)
			}
			if m.RepED > half+1e-9 {
				t.Fatalf("member %d beyond invariant radius: %g > %g", i, m.RepED, half)
			}
			if i > 0 && members[i-1].RepED > m.RepED {
				t.Fatal("members not sorted by representative distance")
			}
			if len(m.Values) != gs.Group.Length {
				t.Fatalf("member values length %d", len(m.Values))
			}
		}
	}
}

func TestGroupMembersErrors(t *testing.T) {
	_, e := newTestWorld(t, 4, 24, 0.1, 4, 6, ModeApprox, -1)
	ctx := context.Background()
	if _, err := e.GroupMembersContext(ctx, GroupRef{Length: 5, Index: -1}, nil); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := e.GroupMembersContext(ctx, GroupRef{Length: 5, Index: 1 << 20}, nil); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := e.GroupMembersContext(ctx, GroupRef{Length: 999, Index: 0}, nil); err == nil {
		t.Fatal("unknown length accepted")
	}
}
