//! Sparse paged functional memory.

use std::collections::HashMap;

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const OFFSET_MASK: u64 = (PAGE_SIZE - 1) as u64;

/// A sparse 64-bit byte-addressable address space.
///
/// Pages are allocated on first touch and zero-initialised, so wrong-path
/// loads to arbitrary addresses are always defined (they read zero) — a
/// requirement for multipath execution, where alternate paths may compute
/// wild addresses before being squashed.
///
/// All multi-byte accesses are little-endian and may straddle page
/// boundaries.
#[derive(Debug, Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl Memory {
    /// Creates an empty address space.
    pub fn new() -> Memory {
        Memory::default()
    }

    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0; PAGE_SIZE]))
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & OFFSET_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        self.page_mut(addr)[(addr & OFFSET_MASK) as usize] = value;
    }

    /// Reads `buf.len()` bytes starting at `addr`, wrapping past the top
    /// of the address space; one page lookup per page touched.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        let mut addr = addr;
        let mut rest = buf;
        while !rest.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            let (chunk, tail) = std::mem::take(&mut rest).split_at_mut(n);
            match self.page(addr) {
                Some(p) => chunk.copy_from_slice(&p[off..off + n]),
                None => chunk.fill(0),
            }
            rest = tail;
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Writes `data` starting at `addr`, wrapping past the top of the
    /// address space; one page lookup per page touched.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let mut addr = addr;
        let mut rest = data;
        while !rest.is_empty() {
            let off = (addr & OFFSET_MASK) as usize;
            let n = rest.len().min(PAGE_SIZE - off);
            self.page_mut(addr)[off..off + n].copy_from_slice(&rest[..n]);
            rest = &rest[n..];
            addr = addr.wrapping_add(n as u64);
        }
    }

    /// Reads a little-endian u32.
    pub fn read_u32(&self, addr: u64) -> u32 {
        let mut b = [0u8; 4];
        self.read_bytes(addr, &mut b);
        u32::from_le_bytes(b)
    }

    /// Writes a little-endian u32.
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut b = [0u8; 8];
        self.read_bytes(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        self.write_bytes(addr, &value.to_le_bytes());
    }

    /// Reads an IEEE double stored at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an IEEE double at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Number of resident (touched) pages — a footprint proxy for tests.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0xdead_beef_0000), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u32(100, 0xdead_beef);
        m.write_u64(200, 0x0123_4567_89ab_cdef);
        m.write_f64(300, -1.5);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u32(100), 0xdead_beef);
        assert_eq!(m.read_u64(200), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_f64(300), -1.5);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0, 0x0403_0201);
        assert_eq!(m.read_u8(0), 1);
        assert_eq!(m.read_u8(3), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 4; // straddles the page boundary
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn overwrite_is_visible() {
        let mut m = Memory::new();
        m.write_u64(64, 1);
        m.write_u64(64, 2);
        assert_eq!(m.read_u64(64), 2);
    }

    #[test]
    fn ranges_across_several_pages_match_byte_accesses() {
        let mut m = Memory::new();
        let start = 3 * PAGE_SIZE as u64 - 5;
        let data: Vec<u8> = (0..2 * PAGE_SIZE + 11).map(|i| (i * 7 + 1) as u8).collect();
        m.write_bytes(start, &data);
        assert_eq!(m.resident_pages(), 4);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(start + i as u64), b);
        }
        // A read running past the written range into an untouched page
        // reads zeros there and allocates nothing.
        let mut buf = vec![0xff; data.len() + PAGE_SIZE];
        m.read_bytes(start, &mut buf);
        assert_eq!(&buf[..data.len()], &data[..]);
        assert!(buf[data.len()..].iter().all(|&b| b == 0));
        assert_eq!(m.resident_pages(), 4);
    }

    #[test]
    fn writes_wrap_past_the_top_of_the_address_space() {
        let mut m = Memory::new();
        m.write_u64(u64::MAX - 2, 0x0807_0605_0403_0201);
        assert_eq!(m.read_u8(u64::MAX), 3);
        assert_eq!(m.read_u8(0), 4);
        assert_eq!(m.read_u64(u64::MAX - 2), 0x0807_0605_0403_0201);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn address_wraparound_reads_are_defined() {
        let m = Memory::new();
        let mut buf = [0u8; 8];
        m.read_bytes(u64::MAX - 3, &mut buf);
        assert_eq!(buf, [0; 8]);
    }
}
