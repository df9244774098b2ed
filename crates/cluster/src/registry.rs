//! A simulated container-image registry (the paper's Docker Hub).
//!
//! The QRIO master server containerizes each job — the user's QASM file, a
//! generated runner script, a requirements file and a Dockerfile — and pushes
//! the image to a registry that cluster nodes later pull from (§3.3). This
//! in-memory registry reproduces that flow without a container runtime.

use std::collections::BTreeMap;

use qrio_bytes::{codec_struct, ByteReader, ByteWriter, CodecError, Decode, Encode};

use crate::error::ClusterError;

/// A container image: a named bundle of text files.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ImageBundle {
    name: String,
    files: BTreeMap<String, String>,
}

codec_struct!(ImageBundle { name, files });

impl ImageBundle {
    /// Create an empty image with the given name (e.g. `qrio/bv-job:latest`).
    pub fn new(name: impl Into<String>) -> Self {
        ImageBundle {
            name: name.into(),
            files: BTreeMap::new(),
        }
    }

    /// The image name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add (or replace) a file in the image.
    pub fn add_file(&mut self, path: impl Into<String>, contents: impl Into<String>) {
        self.files.insert(path.into(), contents.into());
    }

    /// Read a file from the image.
    pub fn file(&self, path: &str) -> Option<&str> {
        self.files.get(path).map(String::as_str)
    }

    /// All file paths in the image.
    pub fn file_names(&self) -> Vec<&str> {
        self.files.keys().map(String::as_str).collect()
    }

    /// Iterate over `(path, contents)` pairs in path order.
    pub fn files(&self) -> impl Iterator<Item = (&str, &str)> {
        self.files.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the image has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }
}

/// An in-memory image registry.
#[derive(Debug, Clone, Default)]
pub struct ImageRegistry {
    images: BTreeMap<String, ImageBundle>,
    push_count: u64,
    pull_count: u64,
}

/// A name-keyed map is stored as the sequence of its values, in name order:
/// every value carries its own name.
pub(crate) fn encode_values<T: Encode>(map: &BTreeMap<String, T>, w: &mut ByteWriter) {
    w.put_usize(map.len());
    for value in map.values() {
        value.encode(w);
    }
}

/// The inverse of [`encode_values`]: each decoded value is keyed by `name`.
pub(crate) fn decode_keyed<T: Decode>(
    r: &mut ByteReader<'_>,
    name: impl Fn(&T) -> &str,
) -> Result<BTreeMap<String, T>, CodecError> {
    let values = Vec::<T>::decode(r)?;
    Ok(values
        .into_iter()
        .map(|value| (name(&value).to_string(), value))
        .collect())
}

// The operation counters are stored, since `push` and `pull` bump them as a
// side effect.
impl Encode for ImageRegistry {
    fn encode(&self, w: &mut ByteWriter) {
        encode_values(&self.images, w);
        self.push_count.encode(w);
        self.pull_count.encode(w);
    }
}

impl Decode for ImageRegistry {
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, CodecError> {
        Ok(ImageRegistry {
            images: decode_keyed(r, ImageBundle::name)?,
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

    /// Push an image, replacing any previous image with the same name.
    pub fn push(&mut self, image: ImageBundle) {
        self.push_count += 1;
        self.images.insert(image.name().to_string(), image);
    }

    /// Pull an image by name: [`ImageRegistry::image`], counted (a miss
    /// counts too).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ImageNotFound`] when no such image exists.
    pub fn pull(&mut self, name: &str) -> Result<&ImageBundle, ClusterError> {
        self.pull_count += 1;
        self.image(name)
    }

    /// Look an image up by name without counting a pull.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::ImageNotFound`] when no such image exists.
    pub fn image(&self, name: &str) -> Result<&ImageBundle, ClusterError> {
        self.images
            .get(name)
            .ok_or_else(|| ClusterError::ImageNotFound(name.to_string()))
    }

    /// Remove an image by name, returning it when it existed. Used to
    /// garbage-collect the containers of jobs that reached a terminal failure
    /// and will never be pulled.
    pub fn remove(&mut self, name: &str) -> Option<ImageBundle> {
        self.images.remove(name)
    }

    /// Whether an image exists.
    pub fn contains(&self, name: &str) -> bool {
        self.images.contains_key(name)
    }

    /// Names of all stored images.
    pub fn image_names(&self) -> Vec<&str> {
        self.images.keys().map(String::as_str).collect()
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

    #[test]
    fn push_and_pull() {
        let mut registry = ImageRegistry::new();
        let mut image = ImageBundle::new("qrio/job:1");
        image.add_file("circuit.qasm", "OPENQASM 2.0;");
        image.add_file("run.py", "print('hi')");
        registry.push(image);
        assert!(registry.contains("qrio/job:1"));
        let pulled = registry.pull("qrio/job:1").unwrap();
        assert_eq!(pulled.file("circuit.qasm"), Some("OPENQASM 2.0;"));
        assert_eq!(pulled.len(), 2);
        assert_eq!(registry.push_count(), 1);
        assert_eq!(registry.pull_count(), 1);
    }

    #[test]
    fn missing_image_is_an_error() {
        let mut registry = ImageRegistry::new();
        assert!(matches!(
            registry.pull("nope"),
            Err(ClusterError::ImageNotFound(_))
        ));
    }

    #[test]
    fn remove_deletes_and_returns_the_image() {
        let mut registry = ImageRegistry::new();
        registry.push(ImageBundle::new("img"));
        assert_eq!(registry.remove("img").unwrap().name(), "img");
        assert!(!registry.contains("img"));
        assert!(registry.remove("img").is_none());
    }

    #[test]
    fn pushing_same_name_replaces() {
        let mut registry = ImageRegistry::new();
        let mut v1 = ImageBundle::new("img");
        v1.add_file("a", "1");
        registry.push(v1);
        let mut v2 = ImageBundle::new("img");
        v2.add_file("a", "2");
        registry.push(v2);
        assert_eq!(registry.pull("img").unwrap().file("a"), Some("2"));
        assert_eq!(registry.image_names(), vec!["img"]);
    }

    #[test]
    fn bundle_helpers() {
        let mut image = ImageBundle::new("x");
        assert!(image.is_empty());
        image.add_file("Dockerfile", "FROM python:3.11");
        assert!(!image.is_empty());
        assert_eq!(image.file_names(), vec!["Dockerfile"]);
        assert_eq!(image.file("missing"), None);
    }
}
