package remote

// MaxCachedPageLen returns the length of the longest resident cache page.
func (s *Source) MaxCachedPageLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	longest := 0
	for _, el := range s.cache.m {
		longest = max(longest, len(el.Value.(*pageEntry).data))
	}
	return longest
}
