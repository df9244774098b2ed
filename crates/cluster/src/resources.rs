//! Classical resource quantities (CPU / memory) for nodes and jobs.

use std::fmt;

use qrio_bytes::codec_struct;

/// A classical resource request or capacity: CPU in millicores and memory in
/// MiB, the two quantities the QRIO visualizer asks the user for (§3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources {
    /// CPU in millicores (1000 = one core).
    pub cpu_millis: u64,
    /// Memory in MiB.
    pub memory_mib: u64,
}

codec_struct!(Resources {
    cpu_millis,
    memory_mib
});

impl Resources {
    /// Construct a resource quantity.
    pub fn new(cpu_millis: u64, memory_mib: u64) -> Self {
        Resources {
            cpu_millis,
            memory_mib,
        }
    }

    /// Whether this capacity can satisfy `request`.
    pub fn can_fit(&self, request: &Resources) -> bool {
        self.cpu_millis >= request.cpu_millis && self.memory_mib >= request.memory_mib
    }

    /// Capacity remaining after subtracting `used` (saturating).
    pub fn remaining(&self, used: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis.saturating_sub(used.cpu_millis),
            memory_mib: self.memory_mib.saturating_sub(used.memory_mib),
        }
    }

    /// Component-wise sum.
    pub fn plus(&self, other: &Resources) -> Resources {
        Resources {
            cpu_millis: self.cpu_millis + other.cpu_millis,
            memory_mib: self.memory_mib + other.memory_mib,
        }
    }
}

impl fmt::Display for Resources {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}m CPU / {} MiB", self.cpu_millis, self.memory_mib)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_and_remaining() {
        let capacity = Resources::new(4000, 8192);
        let request = Resources::new(1000, 2048);
        assert!(capacity.can_fit(&request));
        assert!(!request.can_fit(&capacity));
        let left = capacity.remaining(&request);
        assert_eq!(left, Resources::new(3000, 6144));
        assert_eq!(request.plus(&request), Resources::new(2000, 4096));
        // Saturating subtraction never underflows.
        assert_eq!(request.remaining(&capacity), Resources::new(0, 0));
    }

    #[test]
    fn display() {
        assert_eq!(Resources::new(500, 256).to_string(), "500m CPU / 256 MiB");
    }
}
