#include "dfs/datanode.h"

#include "common/check.h"

namespace dyrs::dfs {

void DataNode::add_block(BlockId block) {
  DYRS_CHECK_MSG(block.valid(), "node " << id() << " given an invalid block");
  const auto b = static_cast<std::size_t>(block.value());
  if (b >= stored_.size()) stored_.resize(b + 1);
  stored_[b] = true;
}

cluster::Disk::FlowId DataNode::read_from_disk(BlockId block, Bytes bytes,
                                               cluster::IoClass io_class,
                                               cluster::Disk::CompletionFn done) {
  DYRS_CHECK_MSG(has_block(block), "node " << id() << " has no replica of block " << block);
  DYRS_CHECK_MSG(serving(), "node " << id() << " is not serving");
  return node_.disk().start_io(io_class, bytes, std::move(done));
}

}  // namespace dyrs::dfs
