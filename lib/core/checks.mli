(** The runtime checks of the paper's Fig. 3.

    These are the software fallback executed by the SW version at every
    pointer-operation site static inference could not resolve; the HW
    version implements the same logic inside the storeP functional
    unit. *)

val determine_y : Ptr.t -> Ptr.format
(** Format of a pointer value: one sign test on bit 63. *)

val determine_x : Ptr.t -> Ptr.location
(** Location of the cell a pointer designates: a relative pointer is
    necessarily into NVM; a virtual address is classified by bit 47. *)

val pointer_assignment : Xlate.t -> dst:Ptr.t -> value:Ptr.t -> Ptr.t
(** [pointer_assignment x ~dst ~value] decides the representation in
    which the pointer [value] must be stored into the cell designated by
    [dst] (itself in either format): NVM cells receive relative form,
    DRAM cells receive virtual form.  Returns the value to store and
    counts the dynamic checks performed. *)
