package resultstore

import "errors"

// OpenStack assembles the response store a serving process's tier
// settings describe, so cmd/simd and cmd/simsched derive their stacks
// the same way:
//
//   - disk.Dir selects a Disk back tier, remote.Servers a Remote one;
//     setting both is an error;
//   - cache > 0 puts a Memory LRU of that many entries in front of the
//     back tier, write-through (Tiered), or stands alone without one;
//   - with no tier at all the result is a nil Store.
//
// The *Disk return is non-nil when a disk tier is part of the stack, so
// the caller can hang the background compactor off it.
func OpenStack(cache int, disk DiskConfig, remote RemoteConfig) (Store, *Disk, error) {
	var back Store
	var d *Disk
	switch {
	case disk.Dir != "" && len(remote.Servers) > 0:
		return nil, nil, errors.New("resultstore: a disk tier and a remote tier are exclusive; configure one")
	case disk.Dir != "":
		var err error
		if d, err = OpenDisk(disk); err != nil {
			return nil, nil, err
		}
		back = d
	case len(remote.Servers) > 0:
		r, err := NewRemote(remote)
		if err != nil {
			return nil, nil, err
		}
		back = r
	}
	switch {
	case cache < 1:
		return back, d, nil
	case back == nil:
		return NewMemory(cache), nil, nil
	}
	return NewTiered(NewMemory(cache), back), d, nil
}
