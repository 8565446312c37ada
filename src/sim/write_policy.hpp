/**
 * @file
 * Write-policy surface of one cache level: what a store does on a hit
 * (write-back vs write-through) and on a miss (write-allocate vs
 * no-write-allocate).  The two axes are orthogonal, exactly as in real
 * controllers — all four combinations are legal, and the differential
 * fuzz suite exercises every one.
 */

#ifndef LRULEAK_SIM_WRITE_POLICY_HPP
#define LRULEAK_SIM_WRITE_POLICY_HPP

namespace lruleak::sim {

/** What a store hit does with the cached copy. */
enum class WriteHitPolicy
{
    WriteBack,    //!< mark the line dirty; memory is updated lazily on
                  //!< eviction (the latency the dirty-state channels key
                  //!< on)
    WriteThrough, //!< forward the store downstream immediately; the
                  //!< line never becomes dirty at this level
};

/** What a store miss does with the missing line. */
enum class WriteMissPolicy
{
    WriteAllocate,   //!< fetch and install the line, then apply the hit
                     //!< policy to it
    NoWriteAllocate, //!< send the store downstream without installing
                     //!< the line (replacement state untouched)
};

constexpr const char *
writeHitPolicyName(WriteHitPolicy policy)
{
    return policy == WriteHitPolicy::WriteBack ? "writeback"
                                               : "writethrough";
}

constexpr const char *
writeMissPolicyName(WriteMissPolicy policy)
{
    return policy == WriteMissPolicy::WriteAllocate ? "allocate"
                                                    : "noallocate";
}

} // namespace lruleak::sim

#endif // LRULEAK_SIM_WRITE_POLICY_HPP
