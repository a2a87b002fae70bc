//! Assembled program images.

use multipath_mem::Memory;

/// One data segment: bytes at an absolute address.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataSegment {
    /// Absolute base address.
    pub base: u64,
    /// Initial contents.
    pub bytes: Vec<u8>,
}

/// An assembled, loadable program.
///
/// Produced by the kernels in [`crate::kernels`]; consumed by the
/// simulator, which loads it into a fresh address space and starts a
/// primary thread at [`Program::entry`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Program {
    /// Human-readable name (e.g. `"compress"`).
    pub name: String,
    /// Address of `text[0]`.
    pub text_base: u64,
    /// Encoded instruction words.
    pub text: Vec<u32>,
    /// Initialised data segments.
    pub data: Vec<DataSegment>,
    /// Initial program counter.
    pub entry: u64,
    /// Initial stack pointer.
    pub initial_sp: u64,
}

impl Program {
    /// Loads text and data into an address space.
    pub fn load_into(&self, mem: &mut Memory) {
        let text: Vec<u8> = self.text.iter().flat_map(|w| w.to_le_bytes()).collect();
        mem.write_bytes(self.text_base, &text);
        for seg in &self.data {
            mem.write_bytes(seg.base, &seg.bytes);
        }
    }

    /// The address one past the last text word.
    pub fn text_end(&self) -> u64 {
        self.text_base + self.text.len() as u64 * multipath_isa::INST_BYTES
    }

    /// Disassembles the whole text segment (debugging aid).
    pub fn listing(&self) -> String {
        multipath_isa::disasm::listing(self.text_base, &self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use multipath_isa::Inst;

    fn tiny() -> Program {
        Program {
            name: "tiny".to_owned(),
            text_base: 0x1_0000,
            text: vec![Inst::nop().encode(), Inst::halt().encode()],
            data: vec![DataSegment {
                base: 0x10_0000,
                bytes: vec![1, 2, 3],
            }],
            entry: 0x1_0000,
            initial_sp: 0x7f_0000,
        }
    }

    #[test]
    fn load_places_text_and_data() {
        let p = tiny();
        let mut mem = Memory::new();
        p.load_into(&mut mem);
        assert_eq!(Inst::decode(mem.read_u32(0x1_0000)), Some(Inst::nop()));
        assert_eq!(Inst::decode(mem.read_u32(0x1_0004)), Some(Inst::halt()));
        assert_eq!(mem.read_u8(0x10_0000), 1);
        assert_eq!(mem.read_u8(0x10_0002), 3);
    }

    #[test]
    fn text_end() {
        assert_eq!(tiny().text_end(), 0x1_0008);
    }

    #[test]
    fn listing_mentions_entry() {
        let text = tiny().listing();
        assert!(text.contains("0x00010000: nop"));
    }
}
