//! A simulated container-image registry (the paper's Docker Hub).
//!
//! The QRIO master server containerizes each job — the user's QASM file, a
//! generated runner script, a requirements file and a Dockerfile — and pushes
//! the image to a registry that cluster nodes later pull from (§3.3). Every
//! one of those files is a function of the job's spec, so this registry
//! keeps only the names of the pushed images and counts pushes and pulls;
//! the master server renders an image's files from the spec whenever an
//! attempt ships them.

use std::collections::BTreeSet;

use qrio_bytes::{ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::error::ClusterError;

/// An in-memory image registry: the names of the pushed images and two
/// operation counters.
#[derive(Debug, Clone, Default)]
pub struct ImageRegistry {
    images: BTreeSet<String>,
    push_count: u64,
    pull_count: u64,
}

// The names in order, then the counters: `push` and `pull` bump them as a
// side effect, so they are stored.
impl Encode for ImageRegistry {
    fn encode(&self, w: &mut ByteWriter) {
        w.put_usize(self.images.len());
        for name in &self.images {
            name.encode(w);
        }
        self.push_count.encode(w);
        self.pull_count.encode(w);
    }
}

impl Decode for ImageRegistry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ImageRegistry {
            images: Vec::<String>::decode(r)?.into_iter().collect(),
            push_count: Decode::decode(r)?,
            pull_count: Decode::decode(r)?,
        })
    }
}

impl ImageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ImageRegistry::default()
    }

    /// Push an image by name; pushing a name again replaces the image.
    pub fn push(&mut self, name: impl Into<String>) {
        self.push_count += 1;
        self.images.insert(name.into());
    }

    /// Pull an image by name, counted (a miss counts too).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ImageNotFound`] when no such image exists.
    pub fn pull(&mut self, name: &str) -> Result<(), ClusterError> {
        self.pull_count += 1;
        self.require(name)
    }

    /// Check that an image exists without counting a pull.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ImageNotFound`] when no such image exists.
    pub fn require(&self, name: &str) -> Result<(), ClusterError> {
        if self.contains(name) {
            Ok(())
        } else {
            Err(ClusterError::ImageNotFound(name.to_string()))
        }
    }

    /// Remove an image by name, returning whether it existed. Used to
    /// garbage-collect the containers of jobs that reached a terminal failure
    /// and will never be pulled.
    pub fn remove(&mut self, name: &str) -> bool {
        self.images.remove(name)
    }

    /// Whether an image exists.
    pub fn contains(&self, name: &str) -> bool {
        self.images.contains(name)
    }

    /// Names of all stored images, in name order.
    pub fn image_names(&self) -> Vec<&str> {
        self.images.iter().map(String::as_str).collect()
    }

    /// Number of push operations performed.
    pub fn push_count(&self) -> u64 {
        self.push_count
    }

    /// Number of pull operations performed.
    pub fn pull_count(&self) -> u64 {
        self.pull_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qrio_bytes::{from_bytes, to_bytes};

    #[test]
    fn push_and_pull() {
        let mut registry = ImageRegistry::new();
        registry.push("qrio/job:1");
        assert!(registry.contains("qrio/job:1"));
        assert_eq!(registry.pull("qrio/job:1"), Ok(()));
        assert_eq!(registry.push_count(), 1);
        assert_eq!(registry.pull_count(), 1);
    }

    #[test]
    fn missing_image_is_an_error() {
        let mut registry = ImageRegistry::new();
        assert_eq!(
            registry.pull("nope"),
            Err(ClusterError::ImageNotFound("nope".into()))
        );
        assert_eq!(registry.require("nope"), registry.pull("nope"));
        assert_eq!(registry.pull_count(), 2);
    }

    #[test]
    fn remove_deletes_and_returns_the_image() {
        let mut registry = ImageRegistry::new();
        registry.push("img");
        assert!(registry.remove("img"));
        assert!(!registry.contains("img"));
        assert!(!registry.remove("img"));
    }

    #[test]
    fn pushing_same_name_replaces() {
        let mut registry = ImageRegistry::new();
        registry.push("img");
        registry.push("img");
        assert_eq!(registry.image_names(), vec!["img"]);
        assert_eq!(registry.push_count(), 2);
    }

    #[test]
    fn names_and_counters_round_trip() {
        let mut registry = ImageRegistry::new();
        registry.push("b");
        registry.push("a");
        let _ = registry.pull("c");
        let bytes = to_bytes(&registry);
        let restored: ImageRegistry = from_bytes(&bytes).unwrap();
        assert_eq!(restored.image_names(), vec!["a", "b"]);
        assert_eq!((restored.push_count(), restored.pull_count()), (2, 1));
        assert_eq!(to_bytes(&restored), bytes);
    }
}
