#include "dfs/namespace.h"

#include "common/check.h"

namespace dyrs::dfs {

Namespace::Namespace(Bytes block_size) : block_size_(block_size) {
  DYRS_CHECK(block_size_ > 0);
}

const FileMeta& Namespace::create_file(const std::string& name, Bytes size) {
  DYRS_CHECK_MSG(!exists(name), "file already exists: " << name);
  DYRS_CHECK_MSG(size > 0, "file must be non-empty: " << name);
  FileMeta meta;
  meta.id = FileId(static_cast<std::int64_t>(files_.size()));
  meta.name = name;
  meta.size = size;
  for (Bytes off = 0; off < size; off += block_size_) {
    BlockMeta blk;
    blk.id = BlockId(static_cast<std::int64_t>(blocks_.size()));
    blk.file = meta.id;
    blk.size = std::min(block_size_, size - off);
    meta.blocks.push_back(blk.id);
    blocks_.push_back(blk);
  }
  by_name_.emplace(name, meta.id);
  files_.push_back(std::move(meta));
  return files_.back();
}

std::vector<BlockId> Namespace::delete_file(const std::string& name) {
  const FileMeta& meta = file(name);  // throws for unknown names
  by_name_.erase(name);
  return meta.blocks;
}

const FileMeta& Namespace::file(const std::string& name) const {
  auto it = by_name_.find(name);
  DYRS_CHECK_MSG(it != by_name_.end(), "no such file: " << name);
  return file(it->second);
}

const FileMeta& Namespace::file(FileId id) const {
  DYRS_CHECK(id.valid() && static_cast<std::size_t>(id.value()) < files_.size());
  return files_[static_cast<std::size_t>(id.value())];
}

const BlockMeta& Namespace::block(BlockId id) const {
  DYRS_CHECK(id.valid() && static_cast<std::size_t>(id.value()) < blocks_.size());
  return blocks_[static_cast<std::size_t>(id.value())];
}

std::vector<BlockId> Namespace::blocks_of(const std::vector<std::string>& names) const {
  std::vector<BlockId> out;
  for (const auto& name : names) {
    const FileMeta& f = file(name);
    out.insert(out.end(), f.blocks.begin(), f.blocks.end());
  }
  return out;
}

}  // namespace dyrs::dfs
