package fpv

// EncodeCachedGraphs encodes every exploration c holds, most recently
// used first. The decoder fuzz target in the external test package
// seeds from real corpus graphs through it.
func EncodeCachedGraphs(c *GraphCache) [][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]byte
	for e := c.head; e != nil; e = e.next {
		out = append(out, EncodeGraph(e.g, e.hunt))
	}
	return out
}
