//! Byte-addressed I/O requests as seen at the host interface.

/// Direction of an I/O operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoOp {
    /// Data flows device -> host.
    Read,
    /// Data flows host -> device.
    Write,
}

impl IoOp {
    /// `true` for [`IoOp::Read`].
    pub fn is_read(self) -> bool {
        matches!(self, IoOp::Read)
    }
}

/// One request arriving at the storage device (post-file-system): a
/// contiguous byte extent in the device's logical address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRequest {
    /// Read or write.
    pub op: IoOp,
    /// Starting byte offset in the device's logical address space.
    pub offset: u64,
    /// Length in bytes (non-zero).
    pub len: u64,
    /// If `true` the device must drain all outstanding requests before this
    /// one is issued, and must complete it before any later request issues.
    /// File systems use this for dependent metadata lookups and journal
    /// commits.
    pub sync: bool,
}

impl HostRequest {
    /// Convenience constructor for an asynchronous read.
    pub fn read(offset: u64, len: u64) -> HostRequest {
        HostRequest {
            op: IoOp::Read,
            offset,
            len,
            sync: false,
        }
    }

    /// Convenience constructor for an asynchronous write.
    pub fn write(offset: u64, len: u64) -> HostRequest {
        HostRequest {
            op: IoOp::Write,
            offset,
            len,
            sync: false,
        }
    }

    /// Marks the request as a synchronous barrier (see [`HostRequest::sync`]).
    pub fn synchronous(mut self) -> HostRequest {
        self.sync = true;
        self
    }

    /// Exclusive end offset of the extent.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }

    /// First device page covered, for a given page size.
    pub fn first_page(&self, page_size: u32) -> u64 {
        self.offset / u64::from(page_size)
    }

    /// Number of device pages covered (including partial head/tail pages).
    pub fn page_count(&self, page_size: u32) -> u64 {
        if self.len == 0 {
            return 0;
        }
        let ps = u64::from(page_size);
        let first = self.offset / ps;
        let last = (self.end() - 1) / ps;
        last - first + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn page_count_aligned() {
        let r = HostRequest::read(0, 8192 * 4);
        assert_eq!(r.page_count(8192), 4);
        assert_eq!(r.first_page(8192), 0);
    }

    #[test]
    fn page_count_unaligned_spans_extra_pages() {
        // 1 byte into page 0 through 1 byte into page 2 => 3 pages.
        let r = HostRequest::read(1, 2 * 8192);
        assert_eq!(r.page_count(8192), 3);
    }

    #[test]
    fn page_count_zero_len() {
        let r = HostRequest::read(4096, 0);
        assert_eq!(r.page_count(8192), 0);
    }

    #[test]
    fn sync_builder() {
        let r = HostRequest::write(0, 512).synchronous();
        assert!(r.sync);
        assert!(!r.op.is_read());
    }

    #[test]
    fn end_is_exclusive() {
        let r = HostRequest::read(100, 50);
        assert_eq!(r.end(), 150);
    }
}
