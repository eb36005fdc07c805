package resultstore

// OpenStack assembles the response store a serving process's tier
// settings describe, so cmd/simd and cmd/simsched derive their stacks
// the same way:
//
//   - disk.Dir selects a Disk back tier;
//   - cache > 0 puts a Memory LRU of that many entries in front of the
//     back tier, write-through (Tiered), or stands alone without one;
//   - with no tier at all the result is a nil Store.
func OpenStack(cache int, disk DiskConfig) (Store, error) {
	var back Store
	if disk.Dir != "" {
		d, err := OpenDisk(disk)
		if err != nil {
			return nil, err
		}
		back = d
	}
	switch {
	case cache < 1:
		return back, nil
	case back == nil:
		return NewMemory(cache), nil
	}
	return NewTiered(NewMemory(cache), back), nil
}
